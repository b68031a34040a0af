// Command capsim-worker executes shard leases for a capsim-coord
// coordinator: it polls for a lease, materializes the campaign spec
// carried in it (building — and caching — the virtual prototype
// locally), runs its shard of the scenario universe, and streams
// completed outcomes back on a heartbeat cadence. If the worker dies
// or stalls mid-lease, the coordinator reclaims the shard and another
// worker resumes it from the last flushed outcome.
//
//	capsim-worker -coord http://127.0.0.1:8859
//	capsim-worker -coord http://127.0.0.1:8859 -name rig-2 &
//
// The worker exits 0 when the coordinator reports the campaign done.
// Names default to host-pid and only need to be unique per
// coordinator.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/campaignd"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
)

func main() {
	coord := flag.String("coord", "http://127.0.0.1:8859", "coordinator base URL")
	name := flag.String("name", "", "worker name (default host-pid)")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "flush cadence while holding a lease (capped at a third of the lease TTL)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	quiet := flag.Bool("quiet", false, "suppress per-lease log lines")
	flag.Parse()

	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelError
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	resolve := campaignd.FabricResolver(logger)
	// CAPSIM_WORKER_STALL_AFTER=N blocks the worker forever inside its
	// N-th scenario, counted over every session of the campaigns it
	// resolves (chaos-testing aid, like capsim's
	// CAPSIM_FAIL_JOURNAL_AFTER): the E2E harness SIGKILLs the stalled
	// process to prove a real worker death mid-lease is recovered by the
	// next worker, resuming from the last flushed outcome.
	if n, err := strconv.Atoi(os.Getenv("CAPSIM_WORKER_STALL_AFTER")); err == nil && n > 0 {
		inner, runs := resolve, new(atomic.Int32)
		resolve = func(raw json.RawMessage) (*fabric.Resolved, error) {
			res, err := inner(raw)
			if err == nil {
				res.Campaign.Checkpointer = stallAfter{Checkpointer: res.Campaign.Checkpointer, n: int32(n), runs: runs}
			}
			return res, err
		}
	}

	w, err := fabric.NewWorker(fabric.WorkerConfig{
		Name: *name, Coordinator: *coord,
		Resolve:   resolve,
		Heartbeat: *heartbeat,
		Log:       logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// SIGINT/SIGTERM cancel the lease loop between flushes; the
	// coordinator reclaims the shard after the TTL and the outcomes
	// flushed so far stay — the next worker resumes, not restarts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("capsim-worker %s polling %s\n", *name, *coord)
	if err := w.Run(ctx); err != nil {
		if ctx.Err() != nil {
			fmt.Println("capsim-worker interrupted; lease will be reclaimed")
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("capsim-worker done")
}

// stallAfter is a prototype and, once NewTreeSession has set its
// CheckpointSession, a session of it: the n-th scenario any of its
// sessions runs never returns.
type stallAfter struct {
	stressor.Checkpointer
	stressor.CheckpointSession
	n    int32
	runs *atomic.Int32
}

func (p stallAfter) NewTreeSession(cfg stressor.TreeConfig) stressor.CheckpointSession {
	p.CheckpointSession = p.Checkpointer.NewTreeSession(cfg)
	return p
}

func (p stallAfter) Run(sc fault.Scenario, fork sim.Time) fault.Outcome {
	if p.runs.Add(1) == p.n {
		select {} // stall forever; only SIGKILL ends this
	}
	return p.CheckpointSession.Run(sc, fork)
}
