package campaignd

import (
	"fmt"
	"testing"
)

// BenchmarkDaemonRunTurnaround measures the submit-to-done latency of
// one campaign through the scheduler, allocation-pinned. The warm
// case rides one cached runner (slot pools, checkpoint node buffers;
// the tree sessions themselves are built per run) for
// every iteration; the cold case alternates two prototype
// configurations through a cache of one, forcing a rebuild — golden
// run included — on every submission. The gap is the cross-run
// amortization the daemon exists to provide.
func BenchmarkDaemonRunTurnaround(b *testing.B) {
	spec := func(horizon string) string {
		return fmt.Sprintf(`{"campaign":"bench","universe":{"kind":"caps-single-fault","horizon":%q},"workers":2}`, horizon)
	}

	b.Run("warm", func(b *testing.B) {
		sched, err := NewScheduler(Config{DataDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		sched.Start()
		defer sched.Stop()
		raw := spec("30ms")
		runToCompletion(b, sched, raw) // prime the runner cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runToCompletion(b, sched, raw)
		}
		b.StopTimer()
		builds, hits := sched.RunnerCacheStats()
		b.ReportMetric(float64(builds), "builds")
		b.ReportMetric(float64(hits)/float64(b.N+1), "cache-hits/run")
	})

	b.Run("cold", func(b *testing.B) {
		sched, err := NewScheduler(Config{DataDir: b.TempDir(), RunnerCacheCap: 1})
		if err != nil {
			b.Fatal(err)
		}
		sched.Start()
		defer sched.Stop()
		// Alternating horizons have distinct runner keys, so a cache
		// of one evicts and rebuilds the prototype every run.
		raws := []string{spec("30ms"), spec("29ms")}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runToCompletion(b, sched, raws[i%2])
		}
		b.StopTimer()
		builds, _ := sched.RunnerCacheStats()
		b.ReportMetric(float64(builds), "builds")
	})
}
