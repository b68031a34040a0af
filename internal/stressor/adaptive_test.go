package stressor

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// adaptiveUniverse builds a small multi-site, multi-model universe.
func adaptiveUniverse(sites int) []fault.Descriptor {
	var u []fault.Descriptor
	for i := 0; i < sites; i++ {
		target := fmt.Sprintf("site%d", i)
		for _, m := range []fault.Model{fault.BitFlip, fault.StuckAt0} {
			u = append(u, fault.Descriptor{
				Name: target + "/" + m.String(), Model: m,
				Class: fault.Permanent, Target: target, Bit: uint(i % 8),
			})
		}
	}
	return u
}

// sigRunFunc is a pure, content-deterministic RunFunc whose outcome
// (class and signature) is a hash of the scenario's fault content —
// the synthetic stand-in for a real prototype runner. jitter adds
// content-dependent wall-clock skew so parallel completions genuinely
// reorder.
func sigRunFunc(calls *int32, jitter bool) RunFunc {
	classes := []fault.Classification{
		fault.Masked, fault.DetectedSafe, fault.SDC, fault.Latent, fault.NoEffect,
	}
	return func(sc fault.Scenario) fault.Outcome {
		if calls != nil {
			atomic.AddInt32(calls, 1)
		}
		h := sim.NewStateHash()
		for _, d := range sc.Faults {
			h.Str(string(appendDescKey(nil, d)))
		}
		sig := h.Sum()
		if jitter {
			time.Sleep(time.Duration(sig%4) * time.Millisecond)
		}
		cls := classes[sig%uint64(len(classes))]
		return fault.Outcome{
			Scenario: sc, Class: cls, Detail: "ran " + sc.ID,
			Signature: sim.MixSignature(sig, uint64(cls)),
		}
	}
}

// newNoveltySource builds the standard deterministic adaptive source
// used across these tests.
func newNoveltySource(u []fault.Descriptor, budget int, seed int64) *scenario.Novelty {
	n := scenario.NewNovelty(u, budget, rand.New(rand.NewSource(seed)))
	n.Mutator().Window = sim.MS(1)
	return n
}

// TestAdaptiveDeterminismAcrossWorkers is the core contract of a
// Source-driven campaign: with a fixed strategy seed, the Result is
// byte-identical at every worker count, because Observe delivery is
// forced into proposal order.
func TestAdaptiveDeterminismAcrossWorkers(t *testing.T) {
	u := adaptiveUniverse(4)
	ref := func(workers int) *Result {
		c := &Campaign{
			Name:    "ad-det",
			Run:     sigRunFunc(nil, workers > 0),
			Source:  newNoveltySource(u, 60, 42),
			Workers: workers,
			MaxRuns: 40,
			Dedup:   true,
		}
		res, err := c.Execute(nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	want := ref(0)
	if want.Adaptive.Simulated != 40 {
		t.Fatalf("Simulated = %d, want the full MaxRuns budget 40", want.Adaptive.Simulated)
	}
	for _, workers := range []int{1, 4} {
		got := ref(workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d diverged from sequential:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// listSource proposes a fixed scenario list (no adaptation) and
// records the Observe order.
type listSource struct {
	scs      []fault.Scenario
	next     int
	observed []fault.Outcome
}

func (s *listSource) Next() (fault.Scenario, bool) {
	if s.next >= len(s.scs) {
		return fault.Scenario{}, false
	}
	sc := s.scs[s.next]
	s.next++
	return sc, true
}

func (s *listSource) Observe(o fault.Outcome) { s.observed = append(s.observed, o) }

// TestAdaptiveObserveOrder pins the determinism rule directly: under
// parallel execution with completion-order skew, outcomes still reach
// Observe in exact proposal order.
func TestAdaptiveObserveOrder(t *testing.T) {
	var scs []fault.Scenario
	for i := 0; i < 30; i++ {
		scs = append(scs, fault.Single(fault.Descriptor{
			Name: fmt.Sprintf("p%d", i), Model: fault.BitFlip, Target: "t", Bit: uint(i % 60),
		}))
	}
	src := &listSource{scs: scs}
	c := &Campaign{
		Name: "ad-order", Run: sigRunFunc(nil, true), Source: src,
		Workers: 4,
	}
	if _, err := c.Execute(nil); err != nil {
		t.Fatal(err)
	}
	if len(src.observed) != len(scs) {
		t.Fatalf("observed %d outcomes, want %d", len(src.observed), len(scs))
	}
	for i, o := range src.observed {
		if want := fmt.Sprintf("p%d", i); o.Scenario.ID != want {
			t.Fatalf("Observe %d got %s, want %s — delivery left proposal order", i, o.Scenario.ID, want)
		}
		if o.Signature == 0 {
			t.Fatalf("outcome %d delivered without a signature", i)
		}
	}
}

// TestAdaptivePruneEquivalence: proposals with identical fault content
// are answered from the memo — one simulation, outcomes fanned out
// under each proposal's own scenario, budget untouched.
func TestAdaptivePruneEquivalence(t *testing.T) {
	base := fault.Descriptor{Name: "orig", Model: fault.BitFlip, Target: "t", Bit: 3}
	dup1, dup2 := base, base
	dup1.Name, dup2.Name = "dup-a", "dup-b" // same content, new names
	// The prune memo holds *delivered* outcomes (that is what keeps it
	// deterministic), so a duplicate is only caught once it trails its
	// representative by at least the lookahead window: space them with a
	// window's worth of distinct fillers.
	scs := []fault.Scenario{fault.Single(base)}
	for i := 0; i < lookahead; i++ {
		scs = append(scs, fault.Single(fault.Descriptor{
			Name: fmt.Sprintf("filler%d", i), Model: fault.StuckAt0, Target: "t", Bit: uint(i),
		}))
	}
	first := len(scs)
	scs = append(scs, fault.Single(dup1), fault.Single(dup2))
	src := &listSource{scs: scs}
	var calls int32
	c := &Campaign{
		Name: "ad-prune", Run: sigRunFunc(&calls, false), Source: src,
		Dedup: true, // MaxRuns 0: the source self-budgets
	}
	res, err := c.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(calls) != first {
		t.Errorf("RunFunc called %d times, want %d (duplicates pruned)", calls, first)
	}
	if res.DedupSavedRuns != 2 || res.Adaptive.Simulated != first || len(res.Outcomes) != len(scs) {
		t.Errorf("pruned=%d simulated=%d outcomes=%d, want 2/%d/%d",
			res.DedupSavedRuns, res.Adaptive.Simulated, len(res.Outcomes), first, len(scs))
	}
	// Pruned outcomes carry their own scenario identity but the
	// representative's class and signature.
	if got := res.Outcomes[first]; got.Scenario.ID != "dup-a" || got.Signature != res.Outcomes[0].Signature {
		t.Errorf("pruned outcome = %+v, want dup-a with %#x", got, res.Outcomes[0].Signature)
	}
	if res.Outcomes[first].Class != res.Outcomes[0].Class {
		t.Error("pruned outcome class differs from representative")
	}

	// Inside the window the representative is still undelivered when its
	// duplicate is proposed: both simulate, at every worker count alike.
	calls = 0
	near := &Campaign{
		Name: "ad-prune", Run: sigRunFunc(&calls, false), Dedup: true,
		Source: &listSource{scs: []fault.Scenario{fault.Single(base), fault.Single(dup1)}},
	}
	if res, err = near.Execute(nil); err != nil {
		t.Fatal(err)
	}
	if calls != 2 || res.DedupSavedRuns != 0 {
		t.Errorf("duplicate inside the window: %d runs, %d pruned; want 2, 0", calls, res.DedupSavedRuns)
	}
}

// TestAdaptiveBudgetAndHalt: MaxRuns caps simulated runs; Halt stops
// proposing but in-flight runs still deliver.
func TestAdaptiveBudgetAndHalt(t *testing.T) {
	u := adaptiveUniverse(6)
	c := &Campaign{
		Name: "ad-budget", Run: sigRunFunc(nil, false),
		Source: newNoveltySource(u, 1000, 7), MaxRuns: 9,
	}
	res, err := c.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive.Simulated != 9 || res.Halted {
		t.Errorf("simulated=%d halted=%v, want 9/false", res.Adaptive.Simulated, res.Halted)
	}

	h := &Campaign{
		Name: "ad-halt", Run: sigRunFunc(nil, false),
		Source: newNoveltySource(u, 1000, 7), MaxRuns: 100,
		Halt: func(completed int) bool { return completed >= 4 },
	}
	hres, err := h.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hres.Halted {
		t.Fatal("campaign did not report Halted")
	}
	if len(hres.Outcomes) < 4 || len(hres.Outcomes) >= 100 {
		t.Errorf("halted after %d outcomes, want a small partial result", len(hres.Outcomes))
	}
}

// TestAdaptivePanicRecovery mirrors the fixed-universe engine: a
// panicking RunFunc yields detected-safe with the standard detail and
// the campaign continues.
func TestAdaptivePanicRecovery(t *testing.T) {
	scs := []fault.Scenario{
		fault.Single(fault.Descriptor{Name: "ok1", Model: fault.BitFlip, Target: "t"}),
		fault.Single(fault.Descriptor{Name: "boom", Model: fault.BitFlip, Target: "t", Bit: 1}),
		fault.Single(fault.Descriptor{Name: "ok2", Model: fault.BitFlip, Target: "t", Bit: 2}),
	}
	src := &listSource{scs: scs}
	c := &Campaign{
		Name: "ad-panic",
		Run: func(sc fault.Scenario) fault.Outcome {
			if sc.ID == "boom" {
				panic("injected crash")
			}
			return fault.Outcome{Scenario: sc, Class: fault.Masked}
		},
		Source: src,
	}
	res, err := c.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PanicRecoveries != 1 || len(res.Outcomes) != 3 {
		t.Fatalf("recoveries=%d outcomes=%d, want 1/3", res.PanicRecoveries, len(res.Outcomes))
	}
	o := res.Outcomes[1]
	if o.Class != fault.DetectedSafe || !strings.Contains(o.Detail, "campaign panic recovered") {
		t.Errorf("panic outcome = %+v", o)
	}
	if o.Signature == 0 {
		t.Error("panic outcome got no fallback signature")
	}
}

// TestAdaptiveJournalResume: interrupt an adaptive campaign via Halt,
// then resume from its journal with an identically configured source —
// the final result must match an uninterrupted run, with the already-
// journaled proposals replayed instead of re-simulated.
func TestAdaptiveJournalResume(t *testing.T) {
	u := adaptiveUniverse(4)
	const budget, seed = 24, 99
	header := journal.Header{
		Campaign: "ad-resume", Shard: 0, Shards: 1,
		Total: budget, Universe: "strategyfp", Adaptive: true, Digest: sim.Digest,
	}
	build := func(workers int) *Campaign {
		return &Campaign{
			Name: "ad-resume", Run: sigRunFunc(nil, false),
			Source:  newNoveltySource(u, 1000, seed),
			MaxRuns: budget, Dedup: true, Workers: workers,
			Fingerprint: "strategyfp",
		}
	}
	if got := build(0).JournalHeader(nil); got != header {
		t.Fatalf("JournalHeader = %+v, want %+v", got, header)
	}
	// Reference: uninterrupted.
	want, err := build(0).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ad.journal")
	jw, err := journal.Create(path, header)
	if err != nil {
		t.Fatal(err)
	}
	first := build(0)
	first.Journal = jw
	first.Halt = func(completed int) bool { return completed >= 7 }
	fres, err := first.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if !fres.Halted {
		t.Fatal("first leg did not halt")
	}

	j, jw2, err := journal.AppendTo(path, header)
	if err != nil {
		t.Fatal(err)
	}
	var calls int32
	second := build(4)
	second.Run = sigRunFunc(&calls, false)
	second.Journal = jw2
	second.Resume = j
	got, err := second.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw2.Close(); err != nil {
		t.Fatal(err)
	}
	gc, wc := got.Adaptive, want.Adaptive
	if gc.Resumed == 0 {
		t.Fatal("resume replayed nothing")
	}
	if int(calls) != wc.Simulated-gc.Resumed {
		t.Errorf("second leg simulated %d, want %d (total %d minus %d resumed)",
			calls, wc.Simulated-gc.Resumed, wc.Simulated, gc.Resumed)
	}
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) || !reflect.DeepEqual(got.Tally, want.Tally) {
		t.Error("resumed result diverged from the uninterrupted run")
	}
	if gc.UniqueSignatures != wc.UniqueSignatures || got.DedupSavedRuns != want.DedupSavedRuns {
		t.Errorf("resumed stats %d/%d, want %d/%d",
			gc.UniqueSignatures, got.DedupSavedRuns, wc.UniqueSignatures, want.DedupSavedRuns)
	}
	// The completed journal replays into the full result a third time.
	j2, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	third := build(0)
	third.Resume = j2
	tres, err := third.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tres.Adaptive.Simulated != 0 {
		t.Errorf("fully journaled campaign re-simulated %d runs", tres.Adaptive.Simulated)
	}
	if !reflect.DeepEqual(tres.Outcomes, want.Outcomes) {
		t.Error("journal-only replay diverged")
	}
}

// TestAdaptiveResumeValidation: stale or foreign journals are refused
// before any run starts — one whose signatures another state digest
// computed, a header from before headers named one included, with a
// *journal.DigestError — and the good header itself resumes.
func TestAdaptiveResumeValidation(t *testing.T) {
	u := adaptiveUniverse(2)
	good := journal.Header{
		FormatMarker: journal.Format, Campaign: "ad-v", Shard: 0, Shards: 1,
		Total: 10, Universe: "fp", Adaptive: true, Digest: sim.Digest,
	}
	build := func(j *journal.Journal) *Campaign {
		return &Campaign{
			Name: "ad-v", Run: sigRunFunc(nil, false),
			Source: newNoveltySource(u, 10, 1), MaxRuns: 10,
			Fingerprint: "fp", Resume: j,
		}
	}
	if _, err := build(&journal.Journal{Header: good}).Execute(nil); err != nil {
		t.Fatalf("the campaign's own header refused: %v", err)
	}
	for _, digest := range []string{"", "other"} {
		h := good
		h.Digest = digest
		_, err := build(&journal.Journal{Header: h}).Execute(nil)
		var de *journal.DigestError
		if !errors.As(err, &de) || de.Journal != h.SigDigest() || de.Want != sim.Digest {
			t.Errorf("journal signed %q: err %v, want a *journal.DigestError naming %s and %s", digest, err, h.SigDigest(), sim.Digest)
		}
	}
	cases := []struct {
		name   string
		mutate func(*journal.Journal)
	}{
		{"not adaptive", func(j *journal.Journal) { j.Header.Adaptive = false }},
		{"wrong campaign", func(j *journal.Journal) { j.Header.Campaign = "other" }},
		{"sharded", func(j *journal.Journal) { j.Header.Shards = 2 }},
		{"wrong budget", func(j *journal.Journal) { j.Header.Total = 11 }},
		{"wrong fingerprint", func(j *journal.Journal) { j.Header.Universe = "zz" }},
		{"bad class", func(j *journal.Journal) {
			j.Entries = append(j.Entries, journal.Entry{Index: 0, ID: "x", Class: "nonsense"})
		}},
		{"conflicting entries", func(j *journal.Journal) {
			j.Entries = append(j.Entries,
				journal.Entry{Index: 0, ID: "x", Class: "masked"},
				journal.Entry{Index: 0, ID: "x", Class: "sdc"})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := &journal.Journal{Header: good}
			tc.mutate(j)
			if _, err := build(j).Execute(nil); err == nil {
				t.Fatal("invalid resume journal accepted")
			}
		})
	}
}

// TestAdaptiveCampaignShim: the spelling bench/ compiles against is
// Campaign{Source: ...} and nothing else — same outcomes, same census.
func TestAdaptiveCampaignShim(t *testing.T) {
	u := adaptiveUniverse(4)
	want, err := (&Campaign{
		Name: "shim", Run: sigRunFunc(nil, false), Source: newNoveltySource(u, 60, 5),
		Workers: 2, MaxRuns: 30, Dedup: true,
	}).Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&AdaptiveCampaign{
		Name: "shim", Run: sigRunFunc(nil, false), Source: newNoveltySource(u, 60, 5),
		Workers: 2, MaxRuns: 30, Prune: true,
	}).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result(), want) || !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
		t.Error("shim result diverged from Campaign{Source}")
	}
	if got.Proposed != len(want.Outcomes) || got.Simulated != 30 ||
		got.UniqueSignatures != want.Adaptive.UniqueSignatures {
		t.Errorf("shim census = %+v, want the campaign's %+v", got, want.Adaptive)
	}
}

// TestAdaptiveJournalFailureAborts: an append failure stops the
// campaign with an error, like the fixed-universe engine.
func TestAdaptiveJournalFailureAborts(t *testing.T) {
	u := adaptiveUniverse(2)
	c := &Campaign{
		Name: "ad-jfail", Run: sigRunFunc(nil, false),
		Source:  newNoveltySource(u, 100, 3),
		MaxRuns: 50,
		Journal: failAfterSink{},
	}
	if _, err := c.Execute(nil); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v, want the journal failure", err)
	}
}

type failAfterSink struct{}

func (failAfterSink) Append(journal.Entry) error { return fmt.Errorf("disk full") }

// serialProbe is a Source and a JournalSink in one. Its counter is a
// plain int on purpose: Next, Observe and Append entered from anywhere
// but one goroutine at a time is a data race the detector reports, and
// the busy flag catches an overlap even without it.
type serialProbe struct {
	listSource
	t     *testing.T
	busy  atomic.Bool
	calls int
}

func (p *serialProbe) enter() {
	if !p.busy.CompareAndSwap(false, true) {
		p.t.Error("Next, Observe or Append entered concurrently")
	}
	p.calls++
	time.Sleep(50 * time.Microsecond) // widen the window an overlap needs
	p.busy.Store(false)
}

func (p *serialProbe) Next() (fault.Scenario, bool) { p.enter(); return p.listSource.Next() }
func (p *serialProbe) Observe(o fault.Outcome)      { p.enter(); p.listSource.Observe(o) }
func (p *serialProbe) Append(journal.Entry) error   { p.enter(); return nil }

// TestCampaignCallbacksAreSerial: with four workers finishing in skewed
// order, the engine still makes every Source and JournalSink call from
// the coordinator, one at a time — what scenario.Novelty (no locks) and
// any JournalSink wrapper rely on. Run it under -race.
func TestCampaignCallbacksAreSerial(t *testing.T) {
	const n = 40
	var scs []fault.Scenario
	for i := 0; i < n; i++ {
		scs = append(scs, fault.Single(fault.Descriptor{
			Name: fmt.Sprintf("p%d", i), Model: fault.BitFlip, Target: "t", Bit: uint(i),
		}))
	}
	sourced := &serialProbe{t: t, listSource: listSource{scs: scs}}
	c := &Campaign{Name: "serial", Run: sigRunFunc(nil, true), Workers: 4, Source: sourced, Journal: sourced}
	if _, err := c.Execute(nil); err != nil {
		t.Fatal(err)
	}
	if want := (n + 1) + n + n; sourced.calls != want { // Next (one past the end), Observe, Append
		t.Errorf("source campaign made %d callbacks, want %d", sourced.calls, want)
	}
	listed := &serialProbe{t: t}
	c = &Campaign{Name: "serial", Run: sigRunFunc(nil, true), Workers: 4, Journal: listed}
	if _, err := c.Execute(scs); err != nil {
		t.Fatal(err)
	}
	if listed.calls != n {
		t.Errorf("list campaign appended %d entries, want %d", listed.calls, n)
	}
}

// TestCampaignSourceRefusals: every knob a Source cannot compose with
// is an error before the source is asked for anything — never a silent
// no-op. The front-ends mirror this set (campaignd.Spec.Validate,
// capsim's flag check).
func TestCampaignSourceRefusals(t *testing.T) {
	for name, set := range map[string]func(*Campaign){
		"Shard":         func(c *Campaign) { c.Shard = Shard{Index: 0, Count: 2} },
		"StopOnFirst":   func(c *Campaign) { c.StopOnFirst = true },
		"scenario list": nil,
	} {
		src := &listSource{scs: makeScenarios(3)}
		c := &Campaign{Name: "refuse", Run: sigRunFunc(nil, false), Source: src}
		var list []fault.Scenario
		if set != nil {
			set(c)
		} else {
			list = makeScenarios(1)
		}
		if _, err := c.Execute(list); err == nil {
			t.Errorf("%s: accepted next to a Source", name)
		}
		if src.next != 0 {
			t.Errorf("%s: the source was asked for %d scenarios before the refusal", name, src.next)
		}
	}
}
