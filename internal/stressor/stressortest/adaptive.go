package stressortest

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stressor"
)

// AdaptiveConfig describes one adaptive determinism matrix: the same
// Novelty strategy, seeded identically per cell, driven through
// stressor.Campaign{Source: ...} across worker counts and an
// interrupt/resume leg. Every cell must reproduce the reference
// (sequential, fresh) byte-for-byte — the closed feedback loop makes
// this a much stronger claim than the fixed-universe matrix, because
// any ordering leak changes what the strategy proposes next, not just
// the order results are collected in.
type AdaptiveConfig struct {
	// Name labels the campaign.
	Name string
	// Universe seeds the Novelty strategy; every cell rebuilds the
	// strategy from it with the same Seed.
	Universe []fault.Descriptor
	// NewRun builds the cell's runner — with ReuseOff set when reuseOff
	// is — and its cleanup. Called once per cell, so every cell but a warm
	// one starts on a cold runner.
	NewRun func(t *testing.T, reuseOff bool) (Prototype, func())
	// Budget is the simulated-run budget per cell (default 24).
	Budget int
	// Seed fixes the strategy RNG (default 1).
	Seed int64
	// Window bounds mutant retiming (default 1 ms).
	Window sim.Time
	// Workers are the worker counts to cross (default {0, 4}).
	Workers []int
	// InterruptAfter is the delivered-outcome count at which resumed
	// cells simulate an interrupt (default 5).
	InterruptAfter int
}

// rebuild is the plain mode on a ReuseOff runner, the reference's.
var rebuild = cellMode{name: "rebuild"}

// RunAdaptive executes the adaptive matrix: reference = rebuild/
// sequential/fresh; cells cross {workers} × {rebuild, plain,
// plain+warm, tree, tree+warm} × {fresh, interrupted+resumed} and must
// all DeepEqual the reference, signatures included — the tree cells' come from signing
// sessions, the plain cells' from one-shot ones.
// On top of that, per worker count: a cell with everything the shared
// run shell offers attached (a generous ScenarioTimeout, Trace,
// Progress, Metrics) must still DeepEqual the bare reference, and a
// cell where one proposal's run hangs must classify it fault.Timeout
// and finish the budget.
func RunAdaptive(t *testing.T, cfg AdaptiveConfig) {
	if cfg.Budget == 0 {
		cfg.Budget = 24
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Window == 0 {
		cfg.Window = sim.MS(1)
	}
	if cfg.Workers == nil {
		cfg.Workers = []int{0, 4}
	}
	if cfg.InterruptAfter == 0 {
		cfg.InterruptAfter = 5
	}

	// campaign builds one cell's campaign around a fresh, identically
	// configured strategy. The Novelty proposal budget is deliberately
	// larger than the engine budget so MaxRuns is always the terminating
	// bound and pruned (budget-free) proposals cannot starve the stream.
	campaign := func(r Prototype, mode cellMode, workers int) *stressor.Campaign {
		src := scenario.NewNovelty(cfg.Universe, 4*cfg.Budget, rand.New(rand.NewSource(cfg.Seed)))
		src.Mutator().Window = cfg.Window
		c := &stressor.Campaign{
			Name: cfg.Name, Source: src, Workers: workers,
			MaxRuns: cfg.Budget, Dedup: true,
			Fingerprint: stressor.UniverseHash(fault.Singles(cfg.Universe)),
		}
		mode.runOn(c, r, r.RunScenarioSigned)
		return c
	}
	execute := func(t *testing.T, c *stressor.Campaign) *stressor.Result {
		t.Helper()
		res, err := c.Execute(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	var ref *stressor.Result
	// runCell executes one cell, journaled; when interrupt is set it
	// halts after InterruptAfter delivered outcomes, reopens the
	// journal and resumes with a fresh, identically-seeded source. A warm
	// cell first runs the campaign once, unjournaled, on the same runner.
	runCell := func(t *testing.T, workers int, mode cellMode, interrupt bool) *stressor.Result {
		r, cleanup := cfg.NewRun(t, mode == rebuild)
		defer cleanup()
		if mode.warm {
			if warm := execute(t, campaign(r, mode, workers)); !reflect.DeepEqual(warm, ref) {
				t.Errorf("warm-up campaign diverged from reference:\n got: %+v\nwant: %+v", warm, ref)
			}
		}
		c := campaign(r, mode, workers)
		header := c.JournalHeader(nil)
		path := filepath.Join(t.TempDir(), "adaptive.journal")
		w, err := journal.Create(path, header)
		if err != nil {
			t.Fatal(err)
		}
		c.Journal = w
		if interrupt {
			c.Halt = func(done int) bool { return done >= cfg.InterruptAfter }
		}
		res := execute(t, c)
		if cerr := w.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if !interrupt {
			return res
		}
		if !res.Halted {
			t.Fatalf("interrupt leg: campaign was not halted (delivered %d)", len(res.Outcomes))
		}
		j, w2, err := journal.AppendTo(path, header)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		c2 := campaign(r, mode, workers)
		c2.Journal, c2.Resume = w2, j
		return execute(t, c2)
	}

	t.Run("reference", func(t *testing.T) {
		ref = runCell(t, 0, rebuild, false)
		if ref.Adaptive.Simulated != cfg.Budget {
			t.Fatalf("reference simulated %d runs, want the full budget %d", ref.Adaptive.Simulated, cfg.Budget)
		}
		if ref.Adaptive.UniqueSignatures < 2 {
			t.Fatalf("reference found %d unique signatures; the universe is degenerate", ref.Adaptive.UniqueSignatures)
		}
	})
	if ref == nil {
		t.Fatal("reference cell did not run")
	}

	// normalize strips the fields that legitimately differ on the
	// resumed leg: the second Execute simulates only the tail
	// (Simulated shrinks, Resumed grows by the same amount). Everything
	// behavioral — the outcome stream, tally, signature census, prune
	// census — must match.
	normalize := func(r *stressor.Result) stressor.Result {
		c, census := *r, *r.Adaptive
		census.Simulated, census.Resumed = 0, 0
		c.Adaptive = &census
		return c
	}

	for _, workers := range cfg.Workers {
		for _, mode := range append([]cellMode{rebuild}, cellModes...) {
			for _, interrupt := range []bool{false, true} {
				phase := "fresh"
				if interrupt {
					phase = "resumed"
				}
				t.Run(fmt.Sprintf("w%d-%s-%s", workers, mode.name, phase), func(t *testing.T) {
					got := runCell(t, workers, mode, interrupt)
					if interrupt {
						if got.Adaptive.Simulated+got.Adaptive.Resumed != ref.Adaptive.Simulated {
							t.Errorf("resumed cell simulated %d + resumed %d != reference %d",
								got.Adaptive.Simulated, got.Adaptive.Resumed, ref.Adaptive.Simulated)
						}
					} else if got.Adaptive.Simulated != ref.Adaptive.Simulated {
						t.Errorf("simulated %d runs, reference %d", got.Adaptive.Simulated, ref.Adaptive.Simulated)
					}
					gn, rn := normalize(got), normalize(ref)
					if !reflect.DeepEqual(gn, rn) {
						t.Errorf("cell diverged from reference:\n got: %+v\nwant: %+v", gn, rn)
					}
				})
			}
		}
	}

	// hangAt is the proposal whose run hangs in the timeout cells; the
	// stream before it is the reference's, so its ID is known.
	const hangAt = 3
	var hung *stressor.Result
	for _, workers := range cfg.Workers {
		t.Run(fmt.Sprintf("w%d-instrumented", workers), func(t *testing.T) {
			r, cleanup := cfg.NewRun(t, false)
			defer cleanup()
			c := campaign(r, cellModes[0], workers)
			reg, updates := obs.NewRegistry(), 0
			c.ScenarioTimeout = time.Minute
			c.Metrics, c.Trace = reg, obs.NewTraceRecorder()
			c.Progress, c.ProgressInterval = func(obs.ProgressUpdate) { updates++ }, -1
			if got := execute(t, c); !reflect.DeepEqual(got, ref) {
				t.Errorf("instrumented cell diverged from the bare reference:\n got: %+v\nwant: %+v", got, ref)
			}
			if updates < cfg.Budget {
				t.Errorf("%d progress updates for %d simulated runs", updates, cfg.Budget)
			}
			name := obs.L("campaign", cfg.Name)
			if reg.Gauge("campaign.worker_utilization", name).Value() <= 0 || reg.Counter("campaign.completed", name).Value() == 0 {
				t.Error("instrumented cell published no worker utilization or no completed count")
			}
		})
		t.Run(fmt.Sprintf("w%d-hung-run", workers), func(t *testing.T) {
			r, cleanup := cfg.NewRun(t, false)
			defer cleanup()
			// The hung run never reaches the runner and is released when
			// the cell ends, so its goroutine is bounded by the cell.
			release := make(chan struct{})
			defer close(release)
			victim := ref.Outcomes[hangAt].Scenario.ID
			c := campaign(r, cellModes[0], workers)
			c.Run = func(sc fault.Scenario) fault.Outcome {
				if sc.ID == victim {
					<-release
					return fault.Outcome{Scenario: sc}
				}
				return r.RunScenarioSigned(sc)
			}
			c.ScenarioTimeout = 500 * time.Millisecond
			got := execute(t, c)
			if o := got.Outcomes[hangAt]; o.Class != fault.Timeout || !strings.Contains(o.Detail, "wall-clock budget") || o.Signature == 0 {
				t.Fatalf("hung proposal delivered as %+v, want a signed timeout", o)
			}
			if !reflect.DeepEqual(got.Outcomes[:hangAt], ref.Outcomes[:hangAt]) {
				t.Error("the stream before the hung proposal diverged from the reference")
			}
			if got.Adaptive.Simulated != cfg.Budget {
				t.Errorf("campaign simulated %d runs after the timeout, want the full budget %d", got.Adaptive.Simulated, cfg.Budget)
			}
			// The timeout is an observation like any other: the strategy
			// sees it at the same point at every worker count.
			if hung == nil {
				hung = got
			} else if !reflect.DeepEqual(got, hung) {
				t.Error("hung-run cell differs across worker counts")
			}
		})
	}
}
