// Package stressortest provides the cross-mode determinism matrix
// shared by the campaign-engine integrations: one table-driven suite
// asserting that a campaign's Result is byte-identical across
// {sequential, parallel} × {rebuild, reuse, tree, tree+early-exit at
// the default, a fine and a coarse hash stride} × {unsharded, N-shard
// merged} ×
// {fresh, resumed-after-simulated-interrupt}, plus a distributed axis
// running the campaign through the fabric coordinator with two real
// workers — once cleanly and once with a worker killed mid-lease. The
// CAPS and ECU runners both run it against their real prototypes,
// replacing per-package ad-hoc pairwise checks.
package stressortest

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// Config describes one determinism matrix.
type Config struct {
	// Name labels the campaign.
	Name string
	// Scenarios is the universe every cell executes.
	Scenarios []fault.Scenario
	// NewRun builds a RunFunc for one cell (reuseOff selects the
	// rebuild-per-run path where the engine supports it), the engine's
	// Checkpointer (nil when it has none — checkpointed cells are then
	// skipped) and a cleanup. It is called once per cell, so pooled
	// engines get a fresh pool each time.
	NewRun func(t *testing.T, reuseOff bool) (stressor.RunFunc, stressor.Checkpointer, func())
	// Workers are the worker counts to cross (default {0, 2}).
	Workers []int
	// Shards are the shard counts to cross; 1 means unsharded
	// (default {1, 2, 4}).
	Shards []int
	// Horizon is the prototype's simulation horizon, which the stride
	// cells divide into their HashStride. Run refuses a zero Horizon.
	Horizon sim.Time
	// Dedup and StopOnFirst apply to every cell.
	Dedup       bool
	StopOnFirst bool
	// InterruptAfter is the completed-run count at which resumed
	// cells simulate an interrupt (default 3).
	InterruptAfter int
}

// Run executes the matrix: the reference cell is rebuild/sequential/
// unsharded/fresh, and every other cell must reproduce its Result
// exactly.
func Run(t *testing.T, cfg Config) {
	if cfg.Horizon <= 0 {
		t.Fatal("stressortest: Config.Horizon unset")
	}
	if cfg.Workers == nil {
		cfg.Workers = []int{0, 2}
	}
	if cfg.Shards == nil {
		cfg.Shards = []int{1, 2, 4}
	}
	if cfg.InterruptAfter == 0 {
		cfg.InterruptAfter = 3
	}
	refRun, _, cleanup := cfg.NewRun(t, true)
	ref, err := (&stressor.Campaign{
		Name: cfg.Name, Run: refRun, Dedup: cfg.Dedup, StopOnFirst: cfg.StopOnFirst,
	}).Execute(cfg.Scenarios)
	cleanup()
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	if len(ref.Outcomes) == 0 {
		t.Fatal("reference campaign produced no outcomes — matrix would pass vacuously")
	}
	runDistributed(t, cfg, ref)
	for _, reuseOff := range []bool{true, false} {
		for _, mode := range cellModes {
			if mode.tree && reuseOff {
				// Tree sessions build on the reuse machinery; the rebuild
				// path has nothing to fork from.
				continue
			}
			for _, workers := range cfg.Workers {
				for _, shards := range cfg.Shards {
					for _, resumed := range []bool{false, true} {
						name := fmt.Sprintf("reuse=%v/mode=%s/workers=%d/shards=%d/resumed=%v",
							!reuseOff, mode.name, workers, shards, resumed)
						if reuseOff && workers == 0 && shards == 1 && !resumed {
							continue // the reference cell itself
						}
						reuseOff, mode, workers, shards, resumed := reuseOff, mode, workers, shards, resumed
						t.Run(name, func(t *testing.T) {
							run, cp, cleanup := cfg.NewRun(t, reuseOff)
							defer cleanup()
							if mode.tree && cp == nil {
								t.Skip("engine has no Checkpointer")
							}
							if !mode.tree {
								cp = nil
							}
							got := executeCell(t, cfg, run, cp, mode, workers, shards, resumed)
							if !reflect.DeepEqual(got, ref) {
								t.Errorf("result diverged from reference\ngot:  %+v\nwant: %+v", got, ref)
							}
						})
					}
				}
			}
		}
	}
}

// cellMode is the checkpointing axis of the matrix: classifications
// must be byte-identical whether runs take the plain path, fork from a
// retained node of a tree session, or also early-exit the moment they
// provably re-converge with the golden trajectory.
// The stride modes hash the golden trajectory four times finer and
// four times coarser than the default Horizon/16, so early exit checks
// convergence at many instants and at few.
type cellMode struct {
	name      string
	tree      bool
	earlyExit bool
	// strides, when set, is the hash points per horizon: the campaign's
	// HashStride is cfg.Horizon/strides.
	strides sim.Time
}

var cellModes = []cellMode{
	{name: "plain"},
	{name: "tree", tree: true},
	{name: "tree+ee", tree: true, earlyExit: true},
	{name: "tree+ee+fine", tree: true, earlyExit: true, strides: 64},
	{name: "tree+ee+coarse", tree: true, earlyExit: true, strides: 4},
}

// executeCell runs one matrix cell: all shards of the campaign (with
// shard 0 interrupted and resumed when resumed is set), merged back
// into one Result when sharded.
func executeCell(t *testing.T, cfg Config, run stressor.RunFunc, cp stressor.Checkpointer, mode cellMode, workers, shards int, resumed bool) *stressor.Result {
	t.Helper()
	dir := t.TempDir()
	var stride sim.Time
	if cp != nil && mode.strides > 0 {
		stride = cfg.Horizon / mode.strides
	}
	campaign := func(sh stressor.Shard, w *journal.Writer, j *journal.Journal, halt func(int) bool) *stressor.Campaign {
		return &stressor.Campaign{
			Name: cfg.Name, Run: run, Workers: workers,
			Dedup: cfg.Dedup, StopOnFirst: cfg.StopOnFirst,
			Checkpointer: cp, EarlyExit: cp != nil && mode.earlyExit, HashStride: stride,
			Shard: sh, Journal: w, Resume: j, Halt: halt,
		}
	}
	// runShard executes one shard (journaled, so every cell also
	// proves journaling never perturbs the result), optionally
	// interrupting after cfg.InterruptAfter runs and resuming from the
	// journal. It returns the final Execute's Result and the journal.
	runShard := func(sh stressor.Shard, interrupt bool) (*stressor.Result, *journal.Journal) {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.journal", sh.Index))
		h := campaign(sh, nil, nil, nil).JournalHeader(cfg.Scenarios)
		w, err := journal.Create(path, h)
		if err != nil {
			t.Fatal(err)
		}
		var halt func(int) bool
		if interrupt {
			halt = func(completed int) bool { return completed >= cfg.InterruptAfter }
		}
		res, err := campaign(sh, w, nil, halt).Execute(cfg.Scenarios)
		if err != nil {
			t.Fatalf("shard %s: %v", sh, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if interrupt {
			j, w2, err := journal.AppendTo(path, h)
			if err != nil {
				t.Fatal(err)
			}
			if res, err = campaign(sh, w2, j, nil).Execute(cfg.Scenarios); err != nil {
				t.Fatalf("shard %s resume: %v", sh, err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
		}
		j, err := journal.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		return res, j
	}
	if shards <= 1 {
		res, _ := runShard(stressor.Shard{}, resumed)
		return res
	}
	js := make([]*journal.Journal, shards)
	for s := 0; s < shards; s++ {
		_, js[s] = runShard(stressor.Shard{Index: s, Count: shards}, resumed && s == 0)
	}
	merged, err := stressor.Merge(stressor.MergeSpec{
		StopOnFirst: cfg.StopOnFirst, Dedup: cfg.Dedup,
	}, cfg.Scenarios, js)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return merged
}
