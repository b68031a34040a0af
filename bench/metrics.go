package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric of the contract. BENCHMARK.json lists
// the same names, units, directions and bounds; smoke_test.go fails
// when the two disagree or when a run emits anything else.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it worse.
	Bound float64
	// Layer is the module a per-layer metric belongs to; Source is S
	// (span around a wrapped seam), R (registry counter the program
	// publishes) or P (stand-alone probe on public functions).
	Layer, Source string
	// Moves says which end-to-end metric the layer metric should move,
	// and on which workload.
	Moves string
}

// endToEnd is measured with tracing off, on every workload. One bound
// serves all six workloads, so each is about three times the widest
// quartile spread ten runs at ten seeds showed on any of them (README,
// "Steadiness"): host noise sets the wall and CPU bounds, the seed-driven
// strategy of adaptive-novelty the two allocation bounds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "scenarios_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "campaign_s_p50", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_scenario", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_scenario", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "alloc_kb_per_scenario", Unit: "kB", Better: "lower", Bound: 0.15},
}

const (
	onPerm      = "scenarios_per_s, cpu_ms_per_scenario on caps-perm-sweep; none on ecu-seu-ee"
	onTransient = "scenarios_per_s on caps-transient-ee; none on caps-perm-sweep"
	onBothCaps  = "campaign_s_p50 on caps-perm-sweep and caps-transient-ee"
	onECU       = "scenarios_per_s on ecu-seu-ee"
	onEE        = "scenarios_per_s on caps-transient-ee and ecu-seu-ee; zero early exits on caps-perm-sweep"
	onAdaptive  = "scenarios_per_s on adaptive-novelty; no other workload"
	onJournal   = "campaign_s_p50 on daemon-e8-loop, scenarios_per_s on fabric-2w-sweep and caps-perm-sweep; none on caps-transient-ee"
	onDaemon    = "campaign_s_p50 on daemon-e8-loop"
	onFabric    = "scenarios_per_s on fabric-2w-sweep"
)

// perLayer is measured in the traced pass. A workload fills what its
// own seams give; the rest comes from the first workload, in the fixed
// order of workloadNames, that has the seam.
var perLayer = []metricDef{
	{Name: "sim.activations_per_scenario", Unit: "count", Better: "lower", Layer: "sim", Source: "R", Moves: onPerm + " (simulated statistic: identical across a simulator-only speed-up)"},
	{Name: "sim.delta_cycles_per_scenario", Unit: "count", Better: "lower", Layer: "sim", Source: "R", Moves: onPerm + " (simulated statistic)"},
	{Name: "sim.run_ns_per_scenario", Unit: "ns", Better: "lower", Layer: "sim", Source: "R", Moves: onPerm},
	{Name: "sim.host_ns_per_sim_ms", Unit: "ns", Better: "lower", Layer: "sim", Source: "R", Moves: onPerm},
	{Name: "sim.simulated_ms_per_scenario", Unit: "ms", Better: "lower", Layer: "sim", Source: "R", Moves: onPerm + " (simulated time)"},
	{Name: "sim.activation_ns", Unit: "ns", Better: "lower", Layer: "sim", Source: "P", Moves: onPerm},
	{Name: "sim.snapshot_ns", Unit: "ns", Better: "lower", Layer: "sim", Source: "P", Moves: onTransient},
	{Name: "sim.restore_ns", Unit: "ns", Better: "lower", Layer: "sim", Source: "P", Moves: onTransient},
	{Name: "sim.statehash_ns", Unit: "ns", Better: "lower", Layer: "sim", Source: "P", Moves: onTransient},
	{Name: "can.frame_ns", Unit: "ns", Better: "lower", Layer: "can", Source: "P", Moves: "scenarios_per_s on caps-perm-sweep"},
	{Name: "caps.run_ns_p50", Unit: "ns", Better: "lower", Layer: "caps", Source: "S", Moves: onBothCaps},
	{Name: "caps.run_ns_p99", Unit: "ns", Better: "lower", Layer: "caps", Source: "S", Moves: onBothCaps + " (the straggler that sets a parallel round's time)"},
	{Name: "caps.build_ns", Unit: "ns", Better: "lower", Layer: "caps", Source: "S", Moves: "setup_s on the CAPS workloads; campaign_s_p50 on daemon-e8-loop only on a cache miss"},
	{Name: "caps.universe_ns", Unit: "ns", Better: "lower", Layer: "caps", Source: "S", Moves: "setup_s on the CAPS sweeps; scenarios_per_s on fabric-2w-sweep (once per lease)"},
	{Name: "ecu.run_ns_p50", Unit: "ns", Better: "lower", Layer: "ecu", Source: "S", Moves: onECU},
	{Name: "ecu.run_ns_p99", Unit: "ns", Better: "lower", Layer: "ecu", Source: "S", Moves: onECU},
	{Name: "ecu.run_ns_p50.noee", Unit: "ns", Better: "lower", Layer: "ecu", Source: "P", Moves: onECU + " (the gap to ecu.run_ns_p50 is the hashing cost)"},
	{Name: "ecu.build_ns", Unit: "ns", Better: "lower", Layer: "ecu", Source: "S", Moves: "setup_s on ecu-seu-ee"},
	{Name: "analysis.classify_ns", Unit: "ns", Better: "lower", Layer: "analysis", Source: "P", Moves: "scenarios_per_s on caps-transient-ee"},
	{Name: "fault.failures_per_kscenario", Unit: "count", Better: "lower", Layer: "fault", Source: "R", Moves: "none: a speed-up that moves it is a wrong verdict"},
	{Name: "stressor.tree_hit_ratio", Unit: "ratio", Better: "higher", Layer: "stressor", Source: "R", Moves: onEE},
	{Name: "stressor.tree_rebuilds", Unit: "count", Better: "lower", Layer: "stressor", Source: "R", Moves: onEE},
	{Name: "stressor.tree_evictions", Unit: "count", Better: "lower", Layer: "stressor", Source: "R", Moves: onEE},
	{Name: "stressor.tree_nodes", Unit: "count", Better: "lower", Layer: "stressor", Source: "R", Moves: onEE},
	{Name: "stressor.early_exit_ratio", Unit: "ratio", Better: "higher", Layer: "stressor", Source: "R", Moves: onEE},
	{Name: "stressor.early_exit_saved_sim_share", Unit: "ratio", Better: "higher", Layer: "stressor", Source: "R", Moves: onEE},
	{Name: "stressor.worker_utilization", Unit: "ratio", Better: "higher", Layer: "stressor", Source: "S", Moves: "scenarios_per_s at Workers=2 on every in-process workload"},
	{Name: "stressor.engine_overhead_ns_per_scenario", Unit: "ns", Better: "lower", Layer: "stressor", Source: "S", Moves: "scenarios_per_s on caps-transient-ee and adaptive-novelty"},
	{Name: "stressor.pruned_equiv", Unit: "count", Better: "higher", Layer: "stressor", Source: "R", Moves: onAdaptive},
	{Name: "scenario.next_ns_p50", Unit: "ns", Better: "lower", Layer: "scenario", Source: "S", Moves: onAdaptive},
	{Name: "scenario.observe_ns_p50", Unit: "ns", Better: "lower", Layer: "scenario", Source: "S", Moves: onAdaptive},
	{Name: "scenario.source_share", Unit: "ratio", Better: "lower", Layer: "scenario", Source: "S", Moves: onAdaptive},
	{Name: "scenario.unique_sigs", Unit: "count", Better: "higher", Layer: "scenario", Source: "R", Moves: "exact at one seed; demoted from end-to-end because it varies with the seed"},
	{Name: "scenario.unique_sig_ratio", Unit: "ratio", Better: "higher", Layer: "scenario", Source: "R", Moves: onAdaptive},
	{Name: "journal.append_ns_p50", Unit: "ns", Better: "lower", Layer: "journal", Source: "S", Moves: onJournal},
	{Name: "journal.close_sync_ms", Unit: "ms", Better: "lower", Layer: "journal", Source: "S", Moves: onJournal},
	{Name: "journal.encode_ns.binary", Unit: "ns", Better: "lower", Layer: "journal", Source: "P", Moves: onJournal},
	{Name: "journal.encode_ns.jsonl", Unit: "ns", Better: "lower", Layer: "journal", Source: "P", Moves: onDaemon},
	{Name: "journal.decode_ns.binary", Unit: "ns", Better: "lower", Layer: "journal", Source: "P", Moves: onFabric + " (final merge)"},
	{Name: "journal.decode_ns.jsonl", Unit: "ns", Better: "lower", Layer: "journal", Source: "P", Moves: "none on these workloads (resume and merge of JSONL journals)"},
	{Name: "campaignd.turnaround_ms_p50", Unit: "ms", Better: "lower", Layer: "campaignd", Source: "S", Moves: onDaemon + " (the same number in ms)"},
	{Name: "campaignd.turnaround_ms_p95", Unit: "ms", Better: "lower", Layer: "campaignd", Source: "S", Moves: "demoted from end-to-end: the tail does not repeat within a tenth on this host"},
	{Name: "campaignd.submit_ms_p50", Unit: "ms", Better: "lower", Layer: "campaignd", Source: "S", Moves: onDaemon},
	{Name: "campaignd.queue_to_final_ms_p50", Unit: "ms", Better: "lower", Layer: "campaignd", Source: "S", Moves: onDaemon},
	{Name: "campaignd.result_fetch_ms_p50", Unit: "ms", Better: "lower", Layer: "campaignd", Source: "S", Moves: onDaemon},
	{Name: "campaignd.sim_share", Unit: "ratio", Better: "higher", Layer: "campaignd", Source: "R", Moves: onDaemon},
	{Name: "campaignd.runner_cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "campaignd", Source: "R", Moves: onDaemon},
	{Name: "campaignd.spec_parse_ns", Unit: "ns", Better: "lower", Layer: "campaignd", Source: "P", Moves: onDaemon},
	{Name: "fabric.lease_rtt_ms_p50", Unit: "ms", Better: "lower", Layer: "fabric", Source: "S", Moves: onFabric},
	{Name: "fabric.flush_rtt_ms_p50", Unit: "ms", Better: "lower", Layer: "fabric", Source: "S", Moves: onFabric},
	{Name: "fabric.flush_rtt_ms_p99", Unit: "ms", Better: "lower", Layer: "fabric", Source: "S", Moves: onFabric},
	{Name: "fabric.coord_handler_ms_p50", Unit: "ms", Better: "lower", Layer: "fabric", Source: "S", Moves: onFabric},
	{Name: "fabric.flushes_per_shard", Unit: "count", Better: "lower", Layer: "fabric", Source: "S", Moves: onFabric},
	{Name: "fabric.merge_ms", Unit: "ms", Better: "lower", Layer: "fabric", Source: "P", Moves: onFabric},
	{Name: "fabric.worker_idle_share", Unit: "ratio", Better: "lower", Layer: "fabric", Source: "S", Moves: onFabric},
	{Name: "fabric.overhead_ratio", Unit: "ratio", Better: "lower", Layer: "fabric", Source: "S", Moves: onFabric + " (in-process throughput on the same universe over fabric throughput)"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Layer: "harness", Source: "S", Moves: "none: untraced over traced scenarios_per_s of the selected workload"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Layer: "harness", Source: "S", Moves: "none"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower", Layer: "harness", Source: "S", Moves: "none: the part of round wall no span covers"},
	{Name: "obs.kernel_instrument_overhead_ratio", Unit: "ratio", Better: "lower", Layer: "obs", Source: "P", Moves: "none on the untraced pass; ROADMAP 5(e) budgets it"},
}

// sample is one reported value. N is the number of observations behind
// it (rounds, spans, probe iterations).
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects the values of one run, keyed by declared name.
type metricSet struct {
	defs []metricDef
	vals map[string]sample
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]sample, len(defs))}
}

// set records a declared metric; an undeclared name is a bug in the
// benchmark, not a condition of the run.
func (m *metricSet) set(name string, value float64, n int) {
	for _, d := range m.defs {
		if d.Name == name {
			if math.IsNaN(value) || math.IsInf(value, 0) {
				value = 0
			}
			m.vals[name] = sample{Value: value, Unit: d.Unit, N: n}
			return
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not declared", name))
}

func (m *metricSet) has(name string) bool { _, ok := m.vals[name]; return ok }

// fillFrom copies every metric m lacks from other.
func (m *metricSet) fillFrom(other *metricSet) {
	for name, s := range other.vals {
		if !m.has(name) {
			m.vals[name] = s
		}
	}
}

// complete reports the declared metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if !m.has(d.Name) {
			out = append(out, d.Name)
		}
	}
	return out
}

// quantile reads the q-quantile of an ascending slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
