package stressortest

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/stressor"
)

// Distributed-cell timings: short enough that a killed worker's lease
// expires within the test, long enough that heartbeats always make the
// deadline under -race.
const (
	distTTL       = 250 * time.Millisecond
	distSteal     = 500 * time.Millisecond
	distHeartbeat = 20 * time.Millisecond
	distPoll      = 5 * time.Millisecond
)

// runDistributed adds the fabric axis to the determinism matrix: the
// campaign partitioned into shard leases and executed by two real
// workers over HTTP — once on the happy path, once with one worker
// killed mid-lease so the survivor resumes its shard from the last
// flushed entry. Both cells must reproduce the sequential reference
// Result exactly.
func runDistributed(t *testing.T, cfg Config, ref *stressor.Result) {
	for _, kill := range []bool{false, true} {
		name := "distributed/workers=2"
		if kill {
			name = "distributed/kill"
		}
		kill := kill
		t.Run(name, func(t *testing.T) {
			coord, err := fabric.NewCoordinator(fabric.CoordConfig{
				Campaign: cfg.Name, Scenarios: cfg.Scenarios, Shards: 4,
				Dedup: cfg.Dedup, StopOnFirst: cfg.StopOnFirst,
				DataDir: t.TempDir(), LeaseTTL: distTTL, StealAfter: distSteal,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			srv := httptest.NewServer(coord.Handler())
			defer srv.Close()

			// Each worker gets its own engine instance from cfg.NewRun,
			// exactly like separate worker processes on separate machines.
			newWorker := func(name string, wrap func(stressor.RunFunc) stressor.RunFunc) *fabric.Worker {
				r, cleanup := cfg.NewRun(t, false)
				t.Cleanup(cleanup)
				run := stressor.RunFunc(r.RunScenario)
				if wrap != nil {
					run = wrap(run)
				}
				w, err := fabric.NewWorker(fabric.WorkerConfig{
					Name: name, Coordinator: srv.URL,
					Resolve: func(json.RawMessage) (*fabric.Resolved, error) {
						return &fabric.Resolved{
							Scenarios: cfg.Scenarios,
							Campaign:  &stressor.Campaign{Run: run},
						}, nil
					},
					Heartbeat: distHeartbeat, Poll: distPoll,
				})
				if err != nil {
					t.Fatal(err)
				}
				return w
			}

			ctx := context.Background()
			var wg sync.WaitGroup
			runWorker := func(w *fabric.Worker) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := w.Run(ctx); err != nil {
						t.Errorf("worker: %v", err)
					}
				}()
			}

			if kill {
				// The victim's run function kills its own worker after
				// InterruptAfter scenarios, first sleeping long enough for a
				// heartbeat to carry the completed entries out — the
				// survivor must RESUME the shard, not restart it. The victim
				// claims its lease before the survivor starts so the kill
				// lands mid-campaign.
				var victim *fabric.Worker
				var runs atomic.Int32
				victim = newWorker("victim", func(run stressor.RunFunc) stressor.RunFunc {
					return func(sc fault.Scenario) fault.Outcome {
						if int(runs.Add(1)) == cfg.InterruptAfter {
							time.Sleep(3 * distHeartbeat)
							victim.Kill()
						}
						return run(sc)
					}
				})
				runWorker(victim)
				deadline := time.Now().Add(10 * time.Second)
				for runs.Load() < 1 {
					if time.Now().After(deadline) {
						t.Fatal("victim never started running")
					}
					time.Sleep(time.Millisecond)
				}
				runWorker(newWorker("survivor", nil))
			} else {
				runWorker(newWorker("w1", nil))
				runWorker(newWorker("w2", nil))
			}
			wg.Wait()

			got, done, err := coord.Result()
			if err != nil || !done {
				t.Fatalf("done=%v err=%v", done, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("distributed result diverged from reference\ngot:  %+v\nwant: %+v", got, ref)
			}
		})
	}
}
