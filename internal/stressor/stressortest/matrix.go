// Package stressortest provides the cross-mode determinism matrix
// shared by the campaign-engine integrations: one table-driven suite
// asserting that a campaign's Result is byte-identical across
// {sequential, parallel} × {rebuild, reuse, tree, reuse and tree again
// on a warm host, hooked one-shot calls} × {unsharded, N-shard merged} ×
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
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/stressor"
)

// Config describes one determinism matrix.
type Config struct {
	// Name labels the campaign.
	Name string
	// Scenarios is the universe every cell executes.
	Scenarios []fault.Scenario
	// NewRun builds the runner for one cell — with ReuseOff set when
	// reuseOff is — and its cleanup. It is called once per cell, so every
	// cell gets a fresh pool.
	NewRun func(t *testing.T, reuseOff bool) (Prototype, func())
	// Workers are the worker counts to cross (default {0, 2}).
	Workers []int
	// Shards are the shard counts to cross; 1 means unsharded
	// (default {1, 2, 4}).
	Shards []int
	// Hooked runs sc on p through the runner's RunScenarioWith with a
	// hook that calls hook and keeps nothing. A run handed to a hook is
	// never checked for convergence, so the plain+hook cells simulate
	// every scenario, transients included, to the horizon on reused
	// slots, and every run that ended cleanly must call hook. When nil,
	// the matrix has no hook cells.
	Hooked func(p Prototype, sc fault.Scenario, hook func()) fault.Outcome
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
	if cfg.Workers == nil {
		cfg.Workers = []int{0, 2}
	}
	if cfg.Shards == nil {
		cfg.Shards = []int{1, 2, 4}
	}
	if cfg.InterruptAfter == 0 {
		cfg.InterruptAfter = 3
	}
	refRunner, cleanup := cfg.NewRun(t, true)
	ref, err := (&stressor.Campaign{
		Name: cfg.Name, Run: refRunner.RunScenario, Dedup: cfg.Dedup, StopOnFirst: cfg.StopOnFirst,
	}).Execute(cfg.Scenarios)
	cleanup()
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	if len(ref.Outcomes) == 0 {
		t.Fatal("reference campaign produced no outcomes — matrix would pass vacuously")
	}
	runDistributed(t, cfg, ref)
	modes := cellModes
	if cfg.Hooked != nil {
		modes = append(modes[:len(modes):len(modes)], hookMode)
	}
	for _, reuseOff := range []bool{true, false} {
		for _, mode := range modes {
			if (mode.tree || mode.warm) && reuseOff {
				// A ReuseOff runner's sessions rebuild and keep nothing: its
				// tree and warm cells would repeat its plain ones.
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
							r, cleanup := cfg.NewRun(t, reuseOff)
							defer cleanup()
							if mode.warm {
								warm := executeCell(t, cfg, r, mode, workers, 1, false)
								if !reflect.DeepEqual(warm, ref) {
									t.Errorf("warm-up campaign diverged from reference\ngot:  %+v\nwant: %+v", warm, ref)
								}
							}
							got := executeCell(t, cfg, r, mode, workers, shards, resumed)
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
// must be byte-identical whether runs are one-shot calls (plain) or fork
// from a retained node in a campaign's tree session. Either way a run
// with no permanent fault early-exits the moment it provably re-converges
// with the golden trajectory, and the rebuild reference never does; a
// hooked one-shot call never does either. A warm cell first runs the
// whole universe once on the same runner, so its campaign starts on slots
// a faulty run left behind (rewound to the root) and forks from golden
// nodes an earlier campaign's sessions published.
type cellMode struct {
	name string
	tree bool
	warm bool
	hook bool
}

// runOn points c at r as mode runs it: as its Checkpointer in a tree
// mode, through run — a one-shot call per scenario — otherwise.
func (mode cellMode) runOn(c *stressor.Campaign, r Prototype, run stressor.RunFunc) {
	if mode.tree {
		c.Checkpointer = r
	} else {
		c.Run = run
	}
}

var cellModes = []cellMode{
	{name: "plain"},
	{name: "plain+warm", warm: true},
	{name: "tree", tree: true},
	{name: "tree+warm", tree: true, warm: true},
}

// hookMode is the plain mode through Config.Hooked; only Run has it.
var hookMode = cellMode{name: "plain+hook", hook: true}

// executeCell runs one matrix cell on r: all shards of the campaign
// (with shard 0 interrupted and resumed when resumed is set), merged
// back into one Result when sharded.
func executeCell(t *testing.T, cfg Config, r Prototype, mode cellMode, workers, shards int, resumed bool) *stressor.Result {
	t.Helper()
	dir := t.TempDir()
	campaign := func(sh stressor.Shard, w *journal.Writer, j *journal.Journal, halt func(int) bool) *stressor.Campaign {
		c := &stressor.Campaign{
			Name: cfg.Name, Workers: workers,
			Dedup: cfg.Dedup, StopOnFirst: cfg.StopOnFirst,
			Shard: sh, Journal: w, Resume: j, Halt: halt,
		}
		run := r.RunScenario
		if mode.hook {
			run = func(sc fault.Scenario) fault.Outcome {
				called := false
				out := cfg.Hooked(r, sc, func() { called = true })
				if !called && !strings.HasPrefix(out.Detail, "campaign error:") {
					t.Errorf("%s ended cleanly but never reached the hook", sc.ID)
				}
				return out
			}
		}
		mode.runOn(c, r, run)
		return c
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
