package campaignd

import (
	"encoding/json"
	"fmt"
	"log/slog"

	"repro/internal/fabric"
	"repro/internal/fault"
)

// This file bridges campaignd's spec language to the distributed
// campaign fabric: the capsim-coord and capsim-worker CLIs accept the
// exact spec JSON that POST /runs accepts, so one campaign description
// drives the one-shot CLI, the daemon and the distributed fabric — and
// all three produce the identical merged result.

// parseFabricSpec is ParseSpec for distributed execution — what both
// fabric entry points accept. The fabric owns the partitioning and the
// merged result, so the single-process knobs that conflict with it are
// rejected here instead of silently misbehaving on a worker.
func parseFabricSpec(raw []byte) (*Spec, error) {
	s, err := ParseSpec(raw)
	switch {
	case err != nil:
		return nil, err
	case s.Shard != "":
		return nil, fmt.Errorf("campaignd: spec shard %q conflicts with fabric sharding (use capsim-coord -shards)", s.Shard)
	case s.Trace:
		return nil, fmt.Errorf("campaignd: trace is not supported for distributed runs")
	case s.Adaptive:
		return nil, fmt.Errorf("campaignd: adaptive is not supported for distributed runs (the fabric partitions a fixed universe)")
	}
	return s, nil
}

// MaterializeSpec parses and validates raw spec JSON for fabric use
// and materializes its scenario universe. The coordinator only
// enumerates: the runner built for that is closed before returning, and
// workers build their own from the spec.
func MaterializeSpec(raw []byte) (*Spec, []fault.Scenario, error) {
	spec, err := parseFabricSpec(raw)
	if err != nil {
		return nil, nil, err
	}
	runner, err := spec.BuildRunner()
	if err != nil {
		return nil, nil, err
	}
	defer runner.Close()
	scenarios, err := spec.Scenarios(runner)
	if err != nil {
		return nil, nil, err
	}
	return spec, scenarios, nil
}

// FabricResolver materializes lease specs for a fabric worker: the
// campaign is the one Spec.Build assembles (the worker overwrites the
// identity fields its lease owns), on a warm runner from the same
// bounded LRU cache the daemon's scheduler uses — successive leases,
// and successive campaigns against one long-lived worker, skip
// prototype elaboration and the golden run, and a prototype the worker
// has moved on from is closed when the cache evicts it. A worker holds
// only its latest Resolved, and resolves between leases, so an
// eviction never closes the runner a lease is executing on.
func FabricResolver(log *slog.Logger) fabric.Resolver {
	return fabricResolver(newRunnerCache(defaultRunnerCacheCap, nil), log)
}

func fabricResolver(cache *runnerCache, log *slog.Logger) fabric.Resolver {
	return func(raw json.RawMessage) (*fabric.Resolved, error) {
		spec, err := parseFabricSpec(raw)
		if err != nil {
			return nil, err
		}
		built := cache.builds.Value()
		runner, err := cache.get(spec)
		if err != nil {
			return nil, err
		}
		if log != nil && cache.builds.Value() != built {
			log.Info("runner built", "key", spec.RunnerKey())
		}
		c, scenarios, err := spec.Build(runner)
		if err != nil {
			return nil, err
		}
		return &fabric.Resolved{Scenarios: scenarios, Campaign: c}, nil
	}
}
