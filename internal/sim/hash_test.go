package sim

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestDigestSingleWordChange is the digest's guarantee as a seeded
// property. Mix64 inverts in either argument with the other held —
// checked here by undoing it — so two fold sequences of one length that
// differ in exactly one word never end in one digest: a U64 word, a byte
// of a Bytes or Str fold (the word or the tail byte it lands in), and a
// cell of a PagedState page, whose page digest is such a sequence, mixed
// with its position by Mix64 and added to the other pages' unchanged
// terms.
func TestDigestSingleWordChange(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 1000; i++ {
		h, w := rng.Uint64(), rng.Uint64()
		if x := unmix(Mix64(h, w)); x^w != h || x^h != w {
			t.Fatalf("Mix64(%#x, %#x) does not invert", h, w)
		}
	}
	changed := func(w uint64) uint64 {
		if rng.Intn(2) == 0 {
			return w ^ 1<<rng.Intn(64)
		}
		for v := w; ; v = rng.Uint64() {
			if v != w {
				return v
			}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		words := make([]uint64, 1+rng.Intn(32))
		for i := range words {
			words[i] = rng.Uint64()
		}
		digest := func() uint64 {
			h := NewStateHash()
			for _, w := range words {
				h.U64(w)
			}
			return h.Sum()
		}
		before := digest()
		i := rng.Intn(len(words))
		words[i] = changed(words[i])
		if digest() == before {
			t.Fatalf("changing word %d of %d left the digest %#x", i, len(words), before)
		}

		b := make([]byte, 1+rng.Intn(40))
		rng.Read(b)
		fold := func(str bool) uint64 {
			h := NewStateHash()
			if str {
				h.Str(string(b))
			} else {
				h.Bytes(b)
			}
			return h.Sum()
		}
		bytesBefore, strBefore := fold(false), fold(true)
		b[rng.Intn(len(b))] ^= 1 << rng.Intn(8)
		if fold(false) == bytesBefore || fold(true) == strBefore {
			t.Fatalf("changing one byte of %d left a digest: Bytes %#x, Str %#x", len(b), bytesBefore, strBefore)
		}
	}
	p := NewPagedState(8*PageCells, 5, 0)
	for i := 0; i < p.Len(); i++ {
		p.Store(i, rng.Uint64())
	}
	for trial := 0; trial < 2000; trial++ {
		h := NewStateHash()
		p.HashInto(&h)
		before := h.Sum()
		cell, bit := rng.Intn(p.Len()), rng.Intn(40)
		p.Store(cell, p.Load(cell)^1<<bit)
		h.Reset()
		p.HashInto(&h)
		if h.Sum() == before {
			t.Fatalf("flipping bit %d of cell %d left the digest %#x", bit, cell, before)
		}
	}
}

// unmix is h^w for Mix64(h, w) = y: x ^ x>>32 undone (its high half is
// x's), then the odd multiply undone by the constant's inverse mod 2⁶⁴,
// found by Newton's iteration (each step doubles the correct low bits).
func unmix(y uint64) uint64 {
	const k = 0x9e3779b97f4a7c15
	inv := uint64(k)
	for i := 0; i < 5; i++ {
		inv *= 2 - k*inv
	}
	return (y ^ y>>32) * inv
}

// BenchmarkStateHash is the cost of one fold of each kind the models'
// HashState bodies use: a word, strings of a short name's, a frame's and
// a long detail's length, and byte slices of a frame payload's and a
// register file's.
func BenchmarkStateHash(b *testing.B) {
	h := NewStateHash()
	b.Run("U64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.U64(uint64(i))
		}
	})
	for _, n := range []int{7, 24, 64} {
		s := strings.Repeat("x", n)
		b.Run("Str/"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.Str(s)
			}
		})
	}
	for _, n := range []int{8, 64} {
		p := make([]byte, n)
		b.Run("Bytes/"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.Bytes(p)
			}
		})
	}
	if h.Sum() == 0 {
		b.Log(h.Sum()) // keep the folds live
	}
}
