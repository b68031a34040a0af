package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/can"
	"repro/internal/caps"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Stand-alone probes (source P): each times a public function of one
// layer on fixed inputs, outside any campaign. They are workload
// independent, so a traced run measures them once.

// timeOp reports the median nanoseconds of op over reps timings of
// inner calls each.
func timeOp(reps, inner int, op func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			op()
		}
		per[r] = float64(time.Since(t0)) / float64(inner)
	}
	return median(per)
}

// pingPong elaborates the two-thread ping-pong of
// BenchmarkKernelObsOverhead: each round is two activations.
func pingPong(k *sim.Kernel, rounds int) {
	ping, pong := k.NewEvent("ping"), k.NewEvent("pong")
	k.Thread("ping", func(ctx *sim.ThreadCtx) {
		for i := 0; i < rounds; i++ {
			ping.Notify(sim.NS(10))
			ctx.Wait(pong)
		}
	})
	k.Thread("pong", func(ctx *sim.ThreadCtx) {
		for i := 0; i < rounds; i++ {
			ctx.Wait(ping)
			pong.Notify(sim.NS(10))
		}
	})
}

// probeKernel measures the activation cost and what a full instrument
// adds to it.
func probeKernel(ms *metricSet) error {
	const rounds, reps = 2000, 15
	run := func(instrument bool) (ns float64, activations uint64, err error) {
		k := sim.NewKernel()
		defer k.Shutdown()
		if instrument {
			k.SetInstrument(&sim.Instrument{Metrics: obs.NewRegistry(), Trace: obs.NewTraceRecorder()})
		}
		pingPong(k, rounds)
		t0 := time.Now()
		err = k.Run(sim.TimeMax)
		return float64(time.Since(t0)), k.Stats().Activations, err
	}
	var plain, instr []float64
	var acts uint64
	for r := 0; r < reps; r++ {
		p, a, err := run(false)
		if err != nil {
			return err
		}
		i, _, err := run(true)
		if err != nil {
			return err
		}
		plain, instr, acts = append(plain, p), append(instr, i), a
	}
	ms.set("sim.activation_ns", median(plain)/float64(acts), reps)
	ms.set("obs.kernel_instrument_overhead_ratio", median(instr)/median(plain), reps)
	return nil
}

// probeCheckpoint measures snapshot, restore and state hash on a CAPS
// prototype run to 40 ms.
func probeCheckpoint(ms *metricSet) error {
	k := sim.NewKernel()
	defer k.Shutdown()
	sys, _ := caps.Build(k, caps.Protected(), caps.NormalDriving())
	nEvents, nProcs := k.Elaborated()
	if err := k.RunUntil(40 * sim.Millisecond); err != nil {
		return err
	}
	var cp sim.Checkpoint
	if err := k.SnapshotInto(&cp); err != nil {
		return err
	}
	const reps, inner = 15, 2000
	var state any
	ms.set("sim.snapshot_ns", timeOp(reps, inner, func() {
		k.SnapshotInto(&cp) // cannot fail: the same quiescent kernel just snapshotted
		state = sim.SnapshotModelState(sys, state)
	}), reps*inner)
	var rerr error
	ms.set("sim.restore_ns", timeOp(reps, inner, func() {
		if err := k.Restore(&cp); err != nil {
			rerr = err
		}
		sys.RestoreState(state)
	}), reps*inner)
	if rerr != nil {
		return rerr
	}
	var sink uint64
	ms.set("sim.statehash_ns", timeOp(reps, inner, func() {
		h := sim.NewStateHash()
		sys.HashState(&h)
		k.HashScheduler(&h, nEvents, nProcs)
		sink += h.Sum()
	}), reps*inner)
	if sink == 1 {
		return fmt.Errorf("state hash probe folded to a constant")
	}
	return nil
}

// probeCAN measures the bus on three nodes: nanoseconds of host time
// per delivered frame.
func probeCAN(ms *metricSet) error {
	const frames, reps = 2000, 9
	per := make([]float64, reps)
	for r := range per {
		k := sim.NewKernel()
		bus := can.NewBus(k, "probe")
		nodes := []*can.Node{bus.Attach("a"), bus.Attach("b"), bus.Attach("c")}
		var delivered int
		for _, n := range nodes {
			n.OnReceive = func(can.Frame, sim.Time) { delivered++ }
		}
		for i := 0; i < frames; i++ {
			if err := nodes[i%3].Send(can.Frame{ID: uint16(0x100 + i%3), Data: []byte{byte(i), byte(i >> 8)}}); err != nil {
				k.Shutdown()
				return err
			}
		}
		t0 := time.Now()
		err := k.Run(sim.Second)
		d := time.Since(t0)
		k.Shutdown()
		if err != nil {
			return err
		}
		if delivered == 0 {
			return fmt.Errorf("can probe delivered no frame")
		}
		per[r] = float64(d) / float64(delivered)
	}
	ms.set("can.frame_ns", median(per), reps*frames)
	return nil
}

// probeClassify measures analysis.Classify on the CAPS golden
// observation against a detected and an equal observation.
func probeClassify(ms *metricSet) error {
	r, err := newCaps(capsHorizon)
	if err != nil {
		return err
	}
	defer r.Close()
	golden := r.Golden()
	same, detected := golden, golden
	same.Activated, detected.Activated = true, true
	detected.Detected, detected.DetectedBy = true, []string{"plausibility"}
	var sink int
	ms.set("analysis.classify_ns", timeOp(15, 5000, func() {
		sink += int(analysis.Classify(golden, same)) + int(analysis.Classify(golden, detected))
	})/2, 15*5000*2)
	if sink == 0 {
		return fmt.Errorf("classify probe saw only no-effect")
	}
	return nil
}

// probeJournal measures both codecs per entry: Append into a file and
// DecodeBytes of that file.
func probeJournal(ms *metricSet, dir string) error {
	const entries, reps = 5000, 7
	header := journal.Header{Campaign: "probe", Shards: 1, Total: entries, Universe: "probe"}
	for _, codec := range []journal.Codec{journal.Binary, journal.JSONL} {
		var enc, dec []float64
		for r := 0; r < reps; r++ {
			path := filepath.Join(dir, fmt.Sprintf("probe-%s-%d.journal", codec, r))
			w, err := journal.CreateCodec(path, header, codec)
			if err != nil {
				return err
			}
			t0 := time.Now()
			for i := 0; i < entries; i++ {
				err = w.Append(journal.Entry{
					Index: i, ID: fmt.Sprintf("caps.accel%d.harness/open@%dus", i%3, 1000+i),
					Class: "detected-safe", Detail: "detected by plausibility,frame-watchdog",
				})
				if err != nil {
					return err
				}
			}
			enc = append(enc, float64(time.Since(t0))/entries)
			if err := w.Close(); err != nil {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			t0 = time.Now()
			j, err := journal.DecodeBytes(data)
			if err != nil {
				return err
			}
			dec = append(dec, float64(time.Since(t0))/float64(len(j.Entries)))
			os.Remove(path)
		}
		ms.set("journal.encode_ns."+string(codec), median(enc), reps*entries)
		ms.set("journal.decode_ns."+string(codec), median(dec), reps*entries)
	}
	return nil
}

// runProbes measures every stand-alone probe.
func runProbes(dir string) (*metricSet, error) {
	ms := newMetricSet(perLayer)
	for _, p := range []func(*metricSet) error{
		probeKernel, probeCheckpoint, probeCAN, probeClassify,
		func(ms *metricSet) error { return probeJournal(ms, dir) },
	} {
		if err := p(ms); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	return ms, nil
}
