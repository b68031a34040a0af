// Command capsim-coord is the distributed-campaign coordinator: it
// partitions one campaign into shard leases, hands them to
// capsim-worker processes over HTTP, journals every flushed outcome,
// reclaims leases from dead or stalled workers, and merges the shard
// journals into the result the unsharded sequential run would have
// produced — byte for byte.
//
// The campaign is described by the same spec JSON that capsimd's
// POST /runs accepts:
//
//	capsim-coord -spec e8.json -shards 8 -data ./coord-data
//	capsim-worker -coord http://127.0.0.1:8859 &   # as many as you like
//
//	curl -s  localhost:8859/status                  # shard/lease table
//	curl -sN localhost:8859/events                  # NDJSON progress stream
//	curl -s  localhost:8859/result                  # merged result (JSON)
//	curl -s 'localhost:8859/result?format=text'     # capsim summary block
//
// -oneshot prints the capsim-identical summary block to stdout when
// the campaign completes and exits — once every worker that registered
// has been told the campaign is done, or has been silent for a lease
// TTL; without it the coordinator keeps
// serving results until SIGINT/SIGTERM. Shard journals are binary and
// live under -data, so a restarted coordinator (same -data, same spec)
// adopts them — JSONL ones an older coordinator wrote included — and
// resumes the campaign instead of rerunning it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaignd"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/stressor"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8859", "listen address (host:port; port 0 picks a free port)")
	specPath := flag.String("spec", "", "campaign spec JSON file (capsimd POST /runs schema; \"-\" reads stdin)")
	shards := flag.Int("shards", 4, "number of shard leases to partition the campaign into")
	dataDir := flag.String("data", "capsim-coord-data", "shard journal directory")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "heartbeat deadline before a lease is reclaimed")
	stealAfter := flag.Duration("steal-after", 0, "no-progress window before an idle worker may steal a live lease (default 3x lease-ttl)")
	oneshot := flag.Bool("oneshot", false, "print the campaign summary and exit when the campaign completes")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	quiet := flag.Bool("quiet", false, "suppress per-lease log lines")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *specPath == "" {
		fail(fmt.Errorf("capsim-coord: -spec is required"))
	}
	// The shard count sizes the lease table: bounded like a spec's.
	if *shards < 1 || *shards > campaignd.MaxShardCount {
		fail(fmt.Errorf("capsim-coord: -shards %d out of range 1..%d", *shards, campaignd.MaxShardCount))
	}
	var raw []byte
	var err error
	if *specPath == "-" {
		raw, err = io.ReadAll(io.LimitReader(os.Stdin, campaignd.MaxSpecBytes+1))
	} else {
		raw, err = os.ReadFile(*specPath)
	}
	if err != nil {
		fail(err)
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

	spec, scenarios, err := campaignd.MaterializeSpec(raw)
	if err != nil {
		fail(err)
	}

	// The merged result renders as the block capsim prints for the same
	// spec — what the goldenfile harness pins across all three front-ends.
	text := func(res *stressor.Result) string { return spec.Summary(len(scenarios), res).Text() }
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{
		Campaign: spec.Campaign, Spec: raw, Scenarios: scenarios,
		Shards: *shards, Dedup: spec.Dedup, StopOnFirst: spec.StopOnFirst,
		DataDir: *dataDir, LeaseTTL: *leaseTTL, StealAfter: *stealAfter,
		Text: text, Log: logger,
	})
	if err != nil {
		fail(err)
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	srv := &http.Server{Handler: coord.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	// The listening line is the readiness handshake: clients (and the
	// E2E harness) parse the actual address from it, which is what
	// makes ":0" usable.
	fmt.Printf("capsim-coord listening on http://%s (campaign %q, %d scenarios, %d shards)\n",
		ln.Addr(), spec.Campaign, len(scenarios), *shards)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fail(err)
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
		// Journals flush on every append; whatever is recorded stays
		// resumable by the next coordinator over the same -data.
		srv.Close()
		fmt.Println("capsim-coord stopped; campaign resumes on restart")
		return
	case <-coord.Done():
		if !*oneshot {
			// Keep serving /result, /status, /events until signalled.
			select {
			case s := <-sig:
				logger.Info("shutting down", "signal", s.String())
			case err := <-errCh:
				fail(err)
			}
			srv.Close()
			return
		}
	}
	// A one-shot coordinator does not leave before its workers know: a
	// registered worker that finds the port closed cannot tell a finished
	// campaign from a dead coordinator. One that has not asked within a
	// lease TTL is dead itself. Shutdown, not Close, so the answer that
	// dismissed the last worker still reaches it.
	select {
	case <-coord.Dismissed():
	case <-time.After(*leaseTTL):
		logger.Info("leaving with workers not told the campaign is done", "waited", *leaseTTL)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *leaseTTL)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	res, _, err := coord.Result()
	if err != nil {
		fail(err)
	}
	fmt.Print(text(res))
}
