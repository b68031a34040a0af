package sim

import (
	"math/rand"
	"testing"
)

// scratchDigest is the reference the incremental digest must equal: a
// brand-new PagedState given the same contents, hashed once from
// scratch.
func scratchDigest(cells []uint64, width int) uint64 {
	p := NewPagedState(len(cells), width, 0)
	for i, v := range cells {
		p.Store(i, v)
	}
	return pagedDigest(p)
}

func pagedDigest(p *PagedState) uint64 {
	h := NewStateHash()
	p.HashInto(&h)
	return h.Sum()
}

func contents(p *PagedState) []uint64 {
	out := make([]uint64, p.Len())
	for i := range out {
		out[i] = p.Load(i)
	}
	return out
}

func equalCells(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPagedStateProperty drives two instances of one geometry through
// random store / flip / hash / capture / restore sequences
// against a plain-slice model. The captures come from one shared pool,
// so an instance regularly restores from a capture it took itself
// (dirty-only), from an older capture of its own (full copy), and from
// one whose buffers the other instance has since refilled (stale stamp:
// full copy of the other's contents). After every step the contents
// must equal the model and — whenever the step hashes — the
// incremental digest must equal a from-scratch digest of the same
// contents.
func TestPagedStateProperty(t *testing.T) {
	geometries := []struct{ cells, width int }{
		{4 * PageCells, 5},   // whole pages, the ECC codeword width
		{3*PageCells + 9, 5}, // short last page
		{PageCells + 7, 3},   // short last page whose byte length is not a multiple of 8
		{PageCells - 1, 8},   // a single short page
		{130 * PageCells, 1}, // more pages than one dirty-set word
	}
	for gi, g := range geometries {
		rng := rand.New(rand.NewSource(int64(1000 + gi)))
		mask := ^uint64(0) >> (64 - 8*uint(g.width))
		type inst struct {
			p     *PagedState
			model []uint64
		}
		insts := [2]*inst{}
		for i := range insts {
			insts[i] = &inst{p: NewPagedState(g.cells, g.width, 7), model: make([]uint64, g.cells)}
			for j := range insts[i].model {
				insts[i].model[j] = 7
			}
		}
		type pooled struct {
			c     PagedCapture
			model []uint64 // nil: never filled
		}
		pool := make([]*pooled, 4)
		for i := range pool {
			pool[i] = &pooled{}
		}
		for step := 0; step < 4000; step++ {
			in := insts[rng.Intn(2)]
			hashes := false
			switch op := rng.Intn(100); {
			case op < 45: // store, clustered so that most pages stay clean
				i := rng.Intn(g.cells)
				if rng.Intn(4) != 0 {
					i = rng.Intn(min(g.cells, 2*PageCells))
				}
				v := rng.Uint64() & mask
				in.p.Store(i, v)
				in.model[i] = v
			case op < 55: // flip one stored bit
				i := rng.Intn(g.cells)
				v := in.p.Load(i) ^ 1<<uint(rng.Intn(8*g.width))
				in.p.Store(i, v)
				in.model[i] = v
			case op < 75:
				hashes = true
			case op < 87:
				c := pool[rng.Intn(len(pool))]
				in.p.CaptureInto(&c.c)
				c.model = append(c.model[:0], in.model...)
			default:
				c := pool[rng.Intn(len(pool))]
				if c.model == nil {
					continue
				}
				in.p.RestoreFrom(&c.c)
				copy(in.model, c.model)
				hashes = rng.Intn(2) == 0
			}
			if got := contents(in.p); !equalCells(got, in.model) {
				t.Fatalf("geometry %d step %d: contents diverged from the model", gi, step)
			}
			if hashes {
				if got, want := pagedDigest(in.p), scratchDigest(in.model, g.width); got != want {
					t.Fatalf("geometry %d step %d: incremental digest %#x, from-scratch digest of the same contents %#x", gi, step, got, want)
				}
			}
		}
	}
}

// TestPagedStateNeverHashesUnasked pins the lazy half of the contract:
// run paths that never call HashInto — stores, captures,
// same-capture and other-capture restores — digest no page.
func TestPagedStateNeverHashesUnasked(t *testing.T) {
	p := NewPagedState(8*PageCells, 5, 1)
	var a, b PagedCapture
	p.Store(3, 9)
	p.CaptureInto(&a)
	p.Store(200, 9)
	p.CaptureInto(&b)
	p.Store(5, 1)
	p.RestoreFrom(&b)
	p.RestoreFrom(&a)
	p.Store(1, 1)
	if n := p.Stats().PagesRehashed; n != 0 {
		t.Fatalf("%d pages digested with no HashInto call", n)
	}
}

// TestPagedStateCostFollowsWrites pins the proportional half: after the
// first digest, hashing re-digests exactly the pages written, a restore
// from the capture the state was forked from copies exactly the pages
// written since, and a restore from any other capture copies them all.
func TestPagedStateCostFollowsWrites(t *testing.T) {
	const pages = 16
	p := NewPagedState(pages*PageCells, 5, 0)
	pagedDigest(p)
	base := p.Stats()
	if base.PagesRehashed != pages {
		t.Fatalf("first digest rehashed %d pages, want all %d", base.PagesRehashed, pages)
	}
	pagedDigest(p)
	if d := p.Stats().PagesRehashed - base.PagesRehashed; d != 0 {
		t.Fatalf("digest of unwritten state rehashed %d pages, want 0", d)
	}

	var fork, other PagedCapture
	p.CaptureInto(&other)
	p.Store(5*PageCells, 1)
	p.CaptureInto(&fork)
	clean := pagedDigest(p)
	base = p.Stats()

	p.Store(0, 1)
	p.Store(1, 2) // same page
	p.Store(9*PageCells+3, 3)
	pagedDigest(p)
	if d := p.Stats().PagesRehashed - base.PagesRehashed; d != 2 {
		t.Fatalf("digest after writing 2 pages rehashed %d", d)
	}
	p.RestoreFrom(&fork)
	if d := p.Stats().PagesRestored - base.PagesRestored; d != 2 {
		t.Fatalf("restore from the fork capture copied %d pages, want the 2 written", d)
	}
	base = p.Stats()
	if got := pagedDigest(p); got != clean {
		t.Fatalf("digest after restore %#x, want the fork's %#x", got, clean)
	}
	if d := p.Stats().PagesRehashed - base.PagesRehashed; d != 0 {
		t.Fatalf("restored pages were re-digested (%d) instead of taking the capture's digests", d)
	}
	p.RestoreFrom(&fork)
	if d := p.Stats().PagesRestored - base.PagesRestored; d != 0 {
		t.Fatalf("restore of an untouched state copied %d pages", d)
	}
	p.RestoreFrom(&other)
	if d := p.Stats().PagesRestored - base.PagesRestored; d != pages {
		t.Fatalf("restore from another capture copied %d pages, want all %d", d, pages)
	}
	if p.Load(5*PageCells) != 0 {
		t.Fatal("restore from the older capture kept a later write")
	}
}

// TestPagedStateRecycledCapture is the NodePool hazard in isolation: a
// capture a took, handed back to a pool and refilled by b, must restore
// into a as a full copy of b's contents — a's dirty set describes its
// distance from a capture that no longer exists.
func TestPagedStateRecycledCapture(t *testing.T) {
	a := NewPagedState(4*PageCells, 5, 0)
	b := NewPagedState(4*PageCells, 5, 0)
	var c PagedCapture
	a.Store(1, 11)
	a.CaptureInto(&c)
	b.Store(3*PageCells, 22)
	b.CaptureInto(&c)
	a.RestoreFrom(&c)
	if !equalCells(contents(a), contents(b)) {
		t.Fatal("restore from a refilled capture left stale pages behind")
	}
	if got, want := pagedDigest(a), pagedDigest(b); got != want {
		t.Fatalf("digest %#x after restoring b's capture, b's own digest %#x", got, want)
	}
}

// TestPagedStateSteadyStateAllocs pins the hot paths at zero
// allocations once warm: digest, capture into a pooled capture, and
// both restore kinds.
func TestPagedStateSteadyStateAllocs(t *testing.T) {
	p := NewPagedState(64*PageCells, 5, 0)
	var fork, other PagedCapture
	p.CaptureInto(&other)
	p.CaptureInto(&fork)
	h := NewStateHash()
	p.HashInto(&h)
	i := 0
	for name, fn := range map[string]func(){
		"hash": func() {
			i++
			p.Store(i%p.Len(), uint64(i))
			p.HashInto(&h)
		},
		"capture into pooled": func() {
			i++
			p.Store(i%p.Len(), uint64(i))
			p.CaptureInto(&fork)
		},
		"restore, same capture": func() {
			i++
			p.Store(i%p.Len(), uint64(i))
			p.RestoreFrom(&fork)
		},
		"restore, other capture": func() {
			p.RestoreFrom(&other)
			p.RestoreFrom(&fork)
		},
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op in steady state, want 0", name, allocs)
		}
	}
}

func BenchmarkPagedStateHashDirtyPage(b *testing.B) {
	p := NewPagedState(256*PageCells, 5, 0)
	h := NewStateHash()
	p.HashInto(&h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Store(i%p.Len(), uint64(i))
		p.HashInto(&h)
	}
}
