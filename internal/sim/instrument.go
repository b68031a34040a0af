package sim

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Instrument connects a kernel to the observability layer
// (internal/obs). Attaching one is strictly optional: every hot-path
// hook in the kernel is a single nil check away, so an uninstrumented
// kernel runs the exact same instruction sequence as before and
// simulation results are byte-identical either way (instrumentation
// only reads wall-clock time, never simulated state).
//
// Metrics recorded (per kernel, accumulated across Run calls):
//
//	sim.delta_cycles / sim.activations / sim.time_steps   counters
//	sim.run_ns                                            counter (wall clock inside RunUntil)
//	sim.proc.activations{proc=...}                        counter per process name
//	sim.proc.run_ns{proc=...}                             counter per process name
//	sim.runnable_depth                                    histogram (procs per delta cycle)
//	sim.deltas_per_step                                   histogram (delta cycles per time point)
//	sim.event_queue_depth                                 histogram (timed heap size per time point)
//
// A process name is one series: processes that share a name, such as
// every scenario's stressor process ("stressor"), share it, so a
// campaign's label set does not grow with its scenarios.
//
// When Trace is set, each RunUntil call records one span on its own
// trace row so concurrent campaign kernels stay distinguishable.
type Instrument struct {
	// Metrics receives the kernel counters and histograms; nil
	// disables metric recording.
	Metrics *obs.Registry
	// Trace receives one span per RunUntil call; nil disables spans.
	Trace *obs.TraceRecorder
	// TID is the trace row for this kernel's spans. 0 auto-assigns a
	// unique row (1000, 1001, ...) at attach time, keeping scenario
	// kernels apart from campaign worker rows.
	TID int

	// hot-path handles resolved once at attach time
	runnableDepth   *obs.Histogram
	deltasPerStep   *obs.Histogram
	eventQueueDepth *obs.Histogram

	// kernel counter values already published to Metrics, so repeated
	// Run calls add only deltas.
	published Stats
}

// kernelTID hands out trace rows for auto-assigned kernel instruments;
// rows below 1000 are reserved for campaign workers.
var kernelTID atomic.Int64

// SetInstrument attaches in to the kernel (nil detaches). Attach
// before Run; the instrument is not shared between kernels.
func (k *Kernel) SetInstrument(in *Instrument) {
	k.instr = in
	if in == nil {
		return
	}
	if in.TID == 0 {
		in.TID = 1000 + int(kernelTID.Add(1))
	}
	if in.Metrics != nil {
		in.runnableDepth = in.Metrics.Histogram("sim.runnable_depth")
		in.deltasPerStep = in.Metrics.Histogram("sim.deltas_per_step")
		in.eventQueueDepth = in.Metrics.Histogram("sim.event_queue_depth")
	}
}

// flushInstr publishes the counters accumulated since the previous
// flush into the registry; called at the end of every RunUntil so
// long-running simulations stream rather than burst.
func (k *Kernel) flushInstr(runStart time.Time) {
	in := k.instr
	if in == nil || in.Metrics == nil {
		return
	}
	reg := in.Metrics
	if d := k.stats.DeltaCycles - in.published.DeltaCycles; d > 0 {
		reg.Counter("sim.delta_cycles").Add(d)
	}
	if d := k.stats.Activations - in.published.Activations; d > 0 {
		reg.Counter("sim.activations").Add(d)
	}
	if d := k.stats.TimeSteps - in.published.TimeSteps; d > 0 {
		reg.Counter("sim.time_steps").Add(d)
	}
	in.published = k.stats
	reg.Counter("sim.run_ns").Add(uint64(time.Since(runStart).Nanoseconds()))
	for _, p := range k.procs {
		if d := p.activations - p.pubActivations; d > 0 {
			reg.Counter("sim.proc.activations", obs.L("proc", p.name)).Add(d)
			p.pubActivations = p.activations
		}
		if d := p.runNanos - p.pubRunNanos; d > 0 {
			reg.Counter("sim.proc.run_ns", obs.L("proc", p.name)).Add(uint64(d))
			p.pubRunNanos = p.runNanos
		}
	}
}
