package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/campaignd"
	"repro/internal/journal"
	"repro/internal/stressor"
)

// The layers methods add what only one workload's seams can give. The
// numbers any workload gives are in traced.generic.

func (s *sweep) layers(l *layerStats) {
	model := "caps"
	if s.ecu {
		model = "ecu"
	}
	l.ms.set(model+".build_ns", s.buildNS, 1)
	if !s.ecu {
		l.ms.set("caps.universe_ns", s.universeNS, 1)
	}
	var planned float64
	for _, sc := range s.scenarios {
		planned += float64(s.horizon - stressor.ForkTime(sc))
	}
	l.setSimulated(planned * float64(len(l.win.rounds)))
	if appends := l.tr.durations(kindAppend); len(appends) > 0 {
		l.ms.set("journal.append_ns_p50", quantile(appends, 0.5), len(appends))
		l.setSpanMS("journal.close_sync_ms", kindSync, 0.5)
	}
	if s.ecu {
		s.probeNoEarlyExit(l)
	}
}

// probeNoEarlyExit runs the round's scenarios once through a tree
// session with early-exit off: what a run costs when nothing is hashed.
func (s *sweep) probeNoEarlyExit(l *layerStats) {
	sess := s.proto.NewTreeSession(stressor.TreeConfig{})
	defer sess.Close()
	durs := make([]float64, 0, len(s.scenarios))
	for _, sc := range s.scenarios {
		fork, ok := s.proto.ForkTime(sc)
		if !ok {
			continue
		}
		t0 := time.Now()
		sess.Run(sc, fork)
		durs = append(durs, float64(time.Since(t0)))
	}
	l.ms.set("ecu.run_ns_p50.noee", median(durs), len(durs))
}

func (a *adaptive) layers(l *layerStats) {
	if a.last == nil {
		return
	}
	rounds := float64(len(l.win.rounds))
	l.setSimulated(float64(adaptiveHorizon) * float64(a.last.Simulated) * rounds)
	next, observe := l.tr.durations(kindNext), l.tr.durations(kindObserve)
	l.ms.set("scenario.next_ns_p50", quantile(next, 0.5), len(next))
	l.ms.set("scenario.observe_ns_p50", quantile(observe, 0.5), len(observe))
	if e := l.sum(kindEngine); e > 0 {
		l.ms.set("scenario.source_share", l.sum(kindNext, kindObserve)/e, len(next)+len(observe))
	}
	l.ms.set("scenario.unique_sigs", float64(a.last.UniqueSignatures), 1)
	l.ms.set("scenario.unique_sig_ratio", float64(a.last.UniqueSignatures)/float64(a.last.Proposed), a.last.Proposed)
	l.ms.set("stressor.pruned_equiv", l.reg["campaign.pruned_equiv"]/rounds, int(rounds))
}

// setSpanMS records the q-quantile of one span kind in milliseconds.
func (l *layerStats) setSpanMS(name string, kind spanKind, q float64) {
	durs := l.tr.durations(kind)
	l.ms.set(name, quantile(durs, q)/1e6, len(durs))
}

func (d *daemon) layers(l *layerStats) {
	l.setSpanMS("campaignd.submit_ms_p50", kindSubmit, 0.5)
	l.setSpanMS("campaignd.queue_to_final_ms_p50", kindWait, 0.5)
	l.setSpanMS("campaignd.result_fetch_ms_p50", kindFetch, 0.5)
	turn := append([]float64(nil), l.win.rounds...)
	sort.Float64s(turn)
	l.ms.set("campaignd.turnaround_ms_p50", quantile(turn, 0.50)*1e3, len(turn))
	l.ms.set("campaignd.turnaround_ms_p95", quantile(turn, 0.95)*1e3, len(turn))
	l.ms.set("campaignd.sim_share", median(d.simShare), len(d.simShare))
	l.daemonSimNS = d.simNS
	builds, hits := d.sched.RunnerCacheStats()
	if builds+hits > 0 {
		l.ms.set("campaignd.runner_cache_hit_ratio", float64(hits)/float64(builds+hits), int(builds+hits))
	}
	const parses = 64 // a spec body is 672 inline scenarios: about 1.5 ms a parse
	t0 := time.Now()
	for i := 0; i < parses; i++ {
		if _, err := campaignd.ParseSpec(d.specs[i%len(d.specs)]); err != nil {
			return
		}
	}
	l.ms.set("campaignd.spec_parse_ns", float64(time.Since(t0))/parses, parses)
}

func (f *fabricSweep) layers(l *layerStats) {
	rounds := float64(len(l.win.rounds))
	l.setSpanMS("fabric.lease_rtt_ms_p50", kindLease, 0.50)
	l.setSpanMS("fabric.flush_rtt_ms_p50", kindFlush, 0.50)
	l.setSpanMS("fabric.flush_rtt_ms_p99", kindFlush, 0.99)
	l.setSpanMS("fabric.coord_handler_ms_p50", kindHandler, 0.50)
	flushes := len(l.tr.durations(kindFlush))
	l.ms.set("fabric.flushes_per_shard", float64(flushes)/(rounds*fabricShards), flushes)
	if worker := l.sum(kindWorker); worker > 0 {
		idle := worker - l.sum(kindRun, kindLease, kindFlush, kindResolve)
		l.ms.set("fabric.worker_idle_share", idle/worker, int(rounds)*fabricWorkers)
	}
	if rate := l.win.rate(); rate > 0 && f.inproc > 0 {
		inproc := float64(len(f.scenarios)) / f.inproc.Seconds()
		l.ms.set("fabric.overhead_ratio", inproc/rate, int(rounds))
	}
	var planned float64
	for _, sc := range f.scenarios {
		planned += float64(capsHorizon - stressor.ForkTime(sc))
	}
	l.setSimulated(planned * rounds)
	f.probeMerge(l)
}

// probeMerge repeats what the coordinator does when the last shard
// completes — read every shard journal back and merge — on the shard
// journals the latest round left on disk.
func (f *fabricSweep) probeMerge(l *layerStats) {
	const reps = 5
	var durs []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		js := make([]*journal.Journal, 0, fabricShards)
		for i := 0; i < fabricShards; i++ {
			j, err := journal.Read(filepath.Join(f.lastDir, fmt.Sprintf("shard-%d.journal", i)))
			if err != nil {
				return
			}
			js = append(js, j)
		}
		if _, err := stressor.Merge(stressor.MergeSpec{}, f.scenarios, js); err != nil {
			return
		}
		durs = append(durs, float64(time.Since(t0)))
	}
	l.ms.set("fabric.merge_ms", median(durs)/1e6, reps)
}
