package ecu

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stressor"
	"repro/internal/tlm"
)

func eccDigest(m *ECCMemory) uint64 {
	h := sim.NewStateHash()
	hashECC(&h, m)
	return h.Sum()
}

// TestECCCorrectedReadDirtiesPage: the scrub write-back happens on a
// *read*, the one write to the codeword array that does not look like
// one. It must pass the dirty barrier like any other: the next digest
// re-hashes exactly that page and lands on the clean image again, and a
// restore of the capture taken before the upset copies exactly that
// page back.
func TestECCCorrectedReadDirtiesPage(t *testing.T) {
	m := NewECCMemory(0, 16*1024)
	var d sim.Time
	const addr = 0x1230
	m.BTransport(tlm.NewWrite(addr, []byte{0x78, 0x56, 0x34, 0x12}), &d)
	var before eccState
	m.captureInto(&before)
	clean := eccDigest(m)

	if err := m.FlipStoredBit(addr, 5); err != nil {
		t.Fatal(err)
	}
	if eccDigest(m) == clean {
		t.Fatal("stored-bit flip did not change the digest")
	}
	base := m.mem.Stats()
	q := tlm.NewRead(addr, 4)
	m.BTransport(q, &d)
	if corr, _ := m.Stats(); !q.Response.OK() || corr != 1 {
		t.Fatalf("read not corrected: %v, corrected=%d", q.Response, corr)
	}
	m.corrected = 0 // compare the codeword image alone
	if got := eccDigest(m); got != clean {
		t.Errorf("digest after the scrub %#x, want the clean image's %#x", got, clean)
	}
	if n := m.mem.Stats().PagesRehashed - base.PagesRehashed; n != 1 {
		t.Errorf("the corrected read dirtied %d pages for the digest, want 1", n)
	}
	m.restoreFrom(&before)
	if n := m.mem.Stats().PagesRestored - base.PagesRestored; n != 1 {
		t.Errorf("restore copied %d pages back, want the 1 the flip and the scrub wrote", n)
	}
	if got := eccDigest(m); got != clean {
		t.Errorf("digest after restore %#x, want %#x", got, clean)
	}
}

// TestSlotStateSteadyStateAllocs pins the slot-level hot paths of a
// checkpoint-tree session at zero allocations once warm: the state
// digest, the pooled capture and the restore.
func TestSlotStateSteadyStateAllocs(t *testing.T) {
	s := midRunSlot(t)
	h := sim.NewStateHash()
	s.HashState(&h)
	st := s.SnapshotState(nil)
	st = s.SnapshotState(st)
	for name, fn := range map[string]func(){
		"hash": func() {
			s.pram.mem.Store(int(runnerAccAddr/4), 1)
			s.HashState(&h)
		},
		"capture": func() { st = s.SnapshotState(st) },
		"restore": func() {
			s.pram.mem.Store(int(runnerAccAddr/4), 2)
			s.RestoreState(st)
		},
	} {
		if allocs := testing.AllocsPerRun(50, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op in steady state, want 0", name, allocs)
		}
	}
}

// seuSweep is a small universe at several instants, before and after
// the workload halts, in an order whose fork times rise and fall.
func seuSweep(r *Runner) []fault.Scenario {
	var ds []fault.Descriptor
	for _, at := range []sim.Time{sim.US(2), sim.NS(700), sim.US(30), sim.US(1), sim.US(3), sim.NS(700), sim.US(90)} {
		ds = append(ds, r.Universe(at)...)
	}
	scs := fault.Singles(ds)
	for i := range scs {
		scs[i].ID = fmt.Sprintf("%d:%s", i, scs[i].ID) // one instant appears twice
	}
	return scs
}

// TestTreeSessionsShareNodePool runs two tree sessions of one runner on
// two goroutines, one walking the sweep in index order and the other in
// reverse, so each keeps restoring into its own slot nodes — pooled
// PagedCaptures among them — that the other's slot published. Every
// outcome must equal the naive rebuild path's. Run under -race this is
// also the concurrency audit of the host's node set and the stamp source.
func TestTreeSessionsShareNodePool(t *testing.T) {
	naive, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	naive.ReuseOff = true
	defer naive.Close()
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	scs := seuSweep(r)
	want := make([]fault.Outcome, len(scs))
	for i, sc := range scs {
		want[i] = naive.RunScenario(sc)
	}
	for round := 0; round < 2; round++ { // the second round starts on the first one's nodes
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				sess := r.NewTreeSession(stressor.TreeConfig{})
				defer sess.Close()
				for k := range scs {
					i := k
					if w == 1 {
						i = len(scs) - 1 - k
					}
					fork, ok := r.ForkTime(scs[i])
					if !ok {
						t.Errorf("scenario %s not fork-eligible", scs[i].ID)
						return
					}
					if got := sess.Run(scs[i], fork); got.Class != want[i].Class || got.Detail != want[i].Detail {
						t.Errorf("session %d, %s: got %s %q, rebuild says %s %q",
							w, scs[i].ID, got.Class, got.Detail, want[i].Class, want[i].Detail)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestTreeSessionPublishesPageCounters: with TreeConfig.Metrics set the
// session publishes how many pages its memories re-digested and copied
// back — exact, repeatable counts, and small ones: cost follows the
// write set, not the 512 pages the two memories hold. Without Metrics
// nothing is registered.
func TestTreeSessionPublishesPageCounters(t *testing.T) {
	counts := func() (rehashed, restored uint64, runs int) {
		r, err := NewRunner(DefaultRunnerConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		reg := obs.NewRegistry()
		scs := seuSweep(r)
		c := &stressor.Campaign{
			Name: "pages", Metrics: reg,
			Checkpointer: r,
		}
		if _, err := c.Execute(scs); err != nil {
			t.Fatal(err)
		}
		l := obs.L("campaign", "pages")
		return reg.Counter("campaign.state_pages_rehashed", l).Value(),
			reg.Counter("campaign.state_pages_restored", l).Value(), len(scs)
	}
	rehashed, restored, runs := counts()
	again, againRestored, _ := counts()
	if rehashed != again || restored != againRestored {
		t.Errorf("page counters do not repeat: rehashed %d then %d, restored %d then %d", rehashed, again, restored, againRestored)
	}
	// The runner digested its memories in full once, on its golden walk,
	// and its root and nodes carry the page digests: a run re-digests and
	// restores a handful of pages, never the whole memory.
	if rehashed == 0 || rehashed > uint64(8*runs) {
		t.Errorf("campaign.state_pages_rehashed = %d over %d runs, want a few per run", rehashed, runs)
	}
	if restored == 0 || restored > uint64(8*runs) {
		t.Errorf("campaign.state_pages_restored = %d over %d runs, want a few per run", restored, runs)
	}
	t.Logf("%d runs: %d pages re-digested, %d pages restored (of %d)", runs, rehashed, restored, 2*64*1024/4/sim.PageCells)

	// The page counters are the campaign's: a session without
	// TreeConfig.Metrics publishes none, not even into the registry the
	// runner's kernels report to.
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	kernels := obs.NewRegistry()
	r.Instrument(kernels, nil)
	sess := r.NewTreeSession(stressor.TreeConfig{})
	defer sess.Close()
	sc := fault.Single(r.Universe(sim.US(1))[0])
	sess.Run(sc, sim.US(1))
	for _, m := range kernels.Snapshot() {
		if strings.HasPrefix(m.Name, "campaign.state_pages_") {
			t.Errorf("%s registered without TreeConfig.Metrics", m.Name)
		}
	}
}

// TestClosedSessionSlotIsReused: a tree session checks its prototype out
// of the runner's slot pool and Close hands it back, so the next
// campaign's session restores the runner's golden node into it instead
// of elaborating (and allocating) a new one — and still answers as the
// rebuild path does. A session that is
// never closed, as an abandoned one is not, keeps its slot.
func TestClosedSessionSlotIsReused(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	naive, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	naive.ReuseOff = true
	defer naive.Close()
	sc := fault.Single(r.Universe(sim.US(30))[0])
	fork, ok := r.ForkTime(sc)
	if !ok {
		t.Fatalf("%s not fork-eligible", sc.ID)
	}
	want := naive.RunScenario(sc)
	run := func(name string) (stressor.CheckpointSession, sim.State) {
		sess := r.NewTreeSession(stressor.TreeConfig{})
		if got := sess.Run(sc, fork); got.Class != want.Class || got.Detail != want.Detail {
			t.Errorf("%s session: got %s %q, rebuild says %s %q", name, got.Class, got.Detail, want.Class, want.Detail)
		}
		return sess, sess.(interface{ Prototype() sim.State }).Prototype()
	}
	first, used := run("first")
	first.Close()
	second, again := run("second")
	defer second.Close()
	if again != used {
		t.Error("the second session elaborated a prototype instead of reusing the one the first closed")
	}
	third, other := run("third")
	defer third.Close()
	if other == used {
		t.Error("a session got the prototype of a session that is still open")
	}
}

// benchSlot is a slot parked mid-run with a warm digest cache and a
// capture to restore.
func benchSlot(b *testing.B) (*ecuSlot, any) {
	s := parkedSlot(b)
	h := sim.NewStateHash()
	s.HashState(&h)
	return s, s.SnapshotState(nil)
}

// BenchmarkSlotHashState is one early-exit stride's model digest after
// a run wrote one page: the cost is the CPUs, the watchdog shadow and
// one page, not the two 64 KiB memories.
func BenchmarkSlotHashState(b *testing.B) {
	s, _ := benchSlot(b)
	h := sim.NewStateHash()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.pram.mem.Store(int(runnerAccAddr/4), uint64(i))
		h.Reset()
		s.HashState(&h)
	}
}

// BenchmarkSlotRestoreState is a tree-node restore after a run wrote
// one page of the capture it was forked from.
func BenchmarkSlotRestoreState(b *testing.B) {
	s, st := benchSlot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.pram.mem.Store(int(runnerAccAddr/4), uint64(i))
		s.RestoreState(st)
	}
}

// TestCrossSlotRestore: the node one session's slot publishes restores
// into another session's slot as that slot stands, in both directions.
// Session b first runs a 700 ns upset, publishing that node from its
// slot; a then extends from it to 2 µs, with the cores mid-program, in
// its own slot and publishes there; b runs on from a's node. Run to the
// horizon, the two slots end every upset of the 2 µs universe with the
// same model StateHash and observation.
func TestCrossSlotRestore(t *testing.T) {
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, err := newModel(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	off := fault.Singles(r.Universe(sim.NS(700)))
	for i, sc := range fault.Singles(r.Universe(sim.US(2))) {
		a, b := r.NewTreeSession(stressor.TreeConfig{}), r.NewTreeSession(stressor.TreeConfig{})
		b.Run(off[i%len(off)], sim.NS(700))
		var ends [2]string
		for j, sess := range []stressor.CheckpointSession{a, b} {
			sess.Run(sc, sim.US(2))
			s := sess.(interface{ Prototype() sim.State }).Prototype().(*ecuSlot)
			h := sim.NewStateHash()
			s.HashState(&h)
			ends[j] = fmt.Sprintf("%#x %+v", h.Sum(), m.Observe(s))
		}
		a.Close()
		b.Close()
		if ends[0] != ends[1] {
			t.Errorf("%s: slot a ends at %s, slot b at %s", sc.ID, ends[0], ends[1])
		}
	}
}

// TestTreeSessionsOfAWarmHostRebuildNothing: the golden-prefix nodes are
// the host's and outlive the campaign, so a second campaign over the
// sweep on the same runner neither rebuilds a prefix from time zero nor
// extends one — every fork is a node the first campaign left — and it
// still answers as the rebuild path does.
func TestTreeSessionsOfAWarmHostRebuildNothing(t *testing.T) {
	naive, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	naive.ReuseOff = true
	defer naive.Close()
	r, err := NewRunner(DefaultRunnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	scs := seuSweep(r)
	want, err := (&stressor.Campaign{Name: "naive", Run: naive.RunScenario}).Execute(scs)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	for _, name := range []string{"cold", "warm"} {
		got, err := (&stressor.Campaign{
			Name: name, Workers: 2, Metrics: reg, Checkpointer: r,
		}).Execute(scs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
			t.Errorf("%s campaign diverges from rebuild:\ngot:  %+v\nwant: %+v", name, got.Outcomes, want.Outcomes)
		}
	}
	l := obs.L("campaign", "warm")
	for _, c := range []string{"campaign.tree_rebuilds", "campaign.tree_extends"} {
		if n := reg.Counter(c, l).Value(); n != 0 {
			t.Errorf("second campaign on a warm host: %s = %d, want 0", c, n)
		}
	}
	if n := reg.Counter("campaign.tree_hits", l).Value(); n == 0 {
		t.Error("second campaign on a warm host hit no node")
	}
}
