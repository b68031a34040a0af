package sim

import (
	"math/bits"
	"sync/atomic"
)

// Paged, dirty-tracked bulk state: the helper behind the Hashable /
// Snapshottable conventions for models that own real memory. A
// whole-array digest or restore costs what the model owns; a faulted
// run forked from a golden node only ever disturbs the pages it writes
// (its dynamic cone), so PagedState makes both cost what the run wrote
// instead. The contract has three parts:
//
//   - Storage is owned by the helper. Cells are reached only through
//     Load and Store, so a write that skips the dirty barrier cannot be
//     written.
//   - The digest is content-pure: HashInto folds a value that depends
//     only on the cell contents — never on the order of writes, on
//     whether digests were maintained incrementally or rebuilt, or on
//     restores — so rebuild, reuse and checkpoint-tree runs of the same
//     scenario still agree.
//   - Restore is dirty-only against the same capture: RestoreFrom
//     copies back just the pages written since the state last equalled
//     that very capture (identified by a per-capture stamp, because
//     pooled capture buffers are recycled between instances); a restore
//     from any other capture is a full copy.

// PageCells is the page size in cells: the granule of digest caching
// and of dirty-only restores.
const PageCells = 64

// captureStamps issues process-unique capture identities. Only
// equality is ever observed, so its value never reaches a result.
var captureStamps atomic.Uint64

// pageSet is a bitset over page indices.
type pageSet []uint64

func (s pageSet) add(pg int)    { s[pg>>6] |= 1 << (pg & 63) }
func (s pageSet) remove(pg int) { s[pg>>6] &^= 1 << (pg & 63) }

func (s pageSet) clear() {
	for i := range s {
		s[i] = 0
	}
}

// forEach calls fn for every page in s, ascending.
func (s pageSet) forEach(fn func(pg int)) {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			fn(i<<6 + bits.TrailingZeros64(w))
		}
	}
}

// PagedState is a fixed-size array of cells, each cellBytes wide
// (1–8), split into pages of PageCells cells. It is not safe for
// concurrent use; like the model that owns it, it belongs to one
// kernel.
type PagedState struct {
	width int
	data  []byte

	// Digest cache, built lazily by the first HashInto so run paths
	// that never hash pay nothing: one digest per page, and the
	// position-mixed sum of all of them, kept current for every page
	// outside hashDirty.
	hashed    bool
	sums      []uint64
	combined  uint64
	hashDirty pageSet

	// Restore tracking: the stamp of the capture this state last
	// equalled (0: none) and the pages written since.
	stamp        uint64
	restoreDirty pageSet

	stats PagedStats
}

// NewPagedState allocates cells cells of cellBytes bytes each, every
// cell holding init.
func NewPagedState(cells, cellBytes int, init uint64) *PagedState {
	if cellBytes < 1 || cellBytes > 8 || cells < 0 {
		panic("sim: NewPagedState: cell width must be 1..8 bytes and the cell count non-negative")
	}
	pages := (cells + PageCells - 1) / PageCells
	words := (pages + 63) / 64
	p := &PagedState{
		width: cellBytes, data: make([]byte, cells*cellBytes),
		sums:      make([]uint64, pages),
		hashDirty: make(pageSet, words), restoreDirty: make(pageSet, words),
	}
	p.fill(init)
	return p
}

// Len reports the number of cells.
func (p *PagedState) Len() int { return len(p.data) / p.width }

// PagedStats are PagedState's work counters: pages whose digest was
// recomputed and pages copied back by restores. They are diagnostics —
// never hashed, captured or restored.
type PagedStats struct {
	PagesRehashed, PagesRestored uint64
}

// Stats reports the work counters since construction.
func (p *PagedState) Stats() PagedStats { return p.stats }

// Load reads cell i.
func (p *PagedState) Load(i int) uint64 {
	var v uint64
	for k, b := range p.data[i*p.width : (i+1)*p.width] {
		v |= uint64(b) << (8 * uint(k))
	}
	return v
}

// Store writes the low cellBytes bytes of v to cell i and marks its
// page dirty for both the digest cache and the next restore.
func (p *PagedState) Store(i int, v uint64) {
	b := p.data[i*p.width : (i+1)*p.width]
	for k := range b {
		b[k] = byte(v >> (8 * uint(k)))
	}
	pg := i / PageCells
	p.hashDirty.add(pg)
	p.restoreDirty.add(pg)
}

// fill writes v to every cell: one cell by hand, the rest by doubling
// copies.
func (p *PagedState) fill(v uint64) {
	if len(p.data) == 0 {
		return
	}
	for k := 0; k < p.width; k++ {
		p.data[k] = byte(v >> (8 * uint(k)))
	}
	for n := p.width; n < len(p.data); n *= 2 {
		copy(p.data[n:], p.data[:n])
	}
}

// mixPage binds a page digest to its position, so equal pages at
// different indices — or two pages swapped — do not cancel in the sum.
func mixPage(pg int, sum uint64) uint64 {
	return Mix64(Mix64(fnvOffset64, uint64(pg)), sum)
}

// pageBytes returns the backing bytes of page pg (short for the last
// page of a state whose size is not a whole number of pages).
func (p *PagedState) pageBytes(pg int) []byte {
	lo := pg * PageCells * p.width
	hi := lo + PageCells*p.width
	if hi > len(p.data) {
		hi = len(p.data)
	}
	return p.data[lo:hi]
}

// pageDigest digests page pg's contents, eight bytes at a time.
func (p *PagedState) pageDigest(pg int) uint64 { return fold(fnvOffset64, p.pageBytes(pg)) }

// recombine rebuilds the combination from every page digest.
func (p *PagedState) recombine() {
	p.combined = 0
	for pg, sum := range p.sums {
		p.combined += mixPage(pg, sum)
	}
}

// setSum installs a page's digest, keeping the combination current.
func (p *PagedState) setSum(pg int, sum uint64) {
	p.combined += mixPage(pg, sum) - mixPage(pg, p.sums[pg])
	p.sums[pg] = sum
}

// flushDigests brings the digest cache up to date: every page on the
// first call, afterwards only the pages written since the last one.
func (p *PagedState) flushDigests() {
	if !p.hashed {
		p.hashed = true
		for pg := range p.sums {
			p.sums[pg] = p.pageDigest(pg)
		}
		p.recombine()
		p.stats.PagesRehashed += uint64(len(p.sums))
		p.hashDirty.clear()
		return
	}
	p.hashDirty.forEach(func(pg int) {
		p.setSum(pg, p.pageDigest(pg))
		p.stats.PagesRehashed++
	})
	p.hashDirty.clear()
}

// HashInto folds the cell count and the contents digest into h. It
// re-digests only pages written since the previous call and is O(1)
// when there are none.
func (p *PagedState) HashInto(h *StateHash) {
	p.flushDigests()
	h.Int(p.Len())
	h.U64(p.combined)
}

// PagedCapture is a deep copy of a PagedState's contents (and, when
// the state had been hashed, of its page digests). The zero value is
// ready; CaptureInto reuses its buffers, so a pooled capture is
// refilled without allocating.
type PagedCapture struct {
	data     []byte
	sums     []uint64
	combined uint64
	hashed   bool
	stamp    uint64
}

// CaptureInto overwrites c with the current contents under a fresh
// stamp; the state equals c from here until its next Store. A hashed
// state first brings its digests up to date, so restores from c
// install page digests instead of recomputing them.
func (p *PagedState) CaptureInto(c *PagedCapture) {
	c.data = append(c.data[:0], p.data...)
	c.hashed = p.hashed
	if p.hashed {
		p.flushDigests()
		c.sums = append(c.sums[:0], p.sums...)
		c.combined = p.combined
	}
	c.stamp = captureStamps.Add(1)
	p.stamp = c.stamp
	p.restoreDirty.clear()
}

// RestoreFrom makes the contents equal c's again. When the state last
// equalled this same capture only the pages written since are copied
// back; otherwise — another capture, or a capture refilled since (by
// this or any other instance) — everything is.
func (p *PagedState) RestoreFrom(c *PagedCapture) {
	if len(c.data) != len(p.data) {
		panic("sim: PagedState.RestoreFrom: capture of a different geometry")
	}
	if c.stamp == p.stamp && c.stamp != 0 {
		p.restoreDirty.forEach(func(pg int) {
			copy(p.pageBytes(pg), c.data[pg*PageCells*p.width:])
			p.stats.PagesRestored++
			if !p.hashed {
				return
			}
			if c.hashed {
				p.setSum(pg, c.sums[pg])
				p.hashDirty.remove(pg)
			} else {
				// c predates the first digest, so there is none to
				// install for what just came back.
				p.hashDirty.add(pg)
			}
		})
		p.restoreDirty.clear()
		return
	}
	copy(p.data, c.data)
	p.stats.PagesRestored += uint64(len(p.sums))
	p.hashed = c.hashed
	if c.hashed {
		copy(p.sums, c.sums)
		p.combined = c.combined
	}
	p.hashDirty.clear()
	p.stamp = c.stamp
	p.restoreDirty.clear()
}
