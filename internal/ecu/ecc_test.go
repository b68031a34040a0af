package ecu

import (
	"math/rand"
	"testing"
)

// eccEncodeLoop is the bit-by-bit encoder eccEncode replaced, kept as
// its reference: every Hamming check bit is the parity of the data bits
// at codeword positions with that bit set, then the overall parity over
// the data and the six check bits.
func eccEncodeLoop(data uint32) uint8 {
	var check uint8
	for b := 0; b < 6; b++ {
		mask := 1 << b
		parity := 0
		for i := 0; i < 32; i++ {
			if dataPositions[i]&mask != 0 && data>>uint(i)&1 == 1 {
				parity ^= 1
			}
		}
		if parity == 1 {
			check |= 1 << b
		}
	}
	parity := 0
	for i := 0; i < 32; i++ {
		if data>>uint(i)&1 == 1 {
			parity ^= 1
		}
	}
	for b := 0; b < 6; b++ {
		if check>>uint(b)&1 == 1 {
			parity ^= 1
		}
	}
	if parity == 1 {
		check |= 1 << 6
	}
	return check
}

// TestECCEncodeMatchesLoop compares the mask encoder with the loop on
// zero, all ones, every single-bit word and 2^20 seeded random words.
func TestECCEncodeMatchesLoop(t *testing.T) {
	words := []uint32{0, ^uint32(0)}
	for i := 0; i < 32; i++ {
		words = append(words, 1<<i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<20; i++ {
		words = append(words, rng.Uint32())
	}
	for _, w := range words {
		if got, want := eccEncode(w), eccEncodeLoop(w); got != want {
			t.Fatalf("eccEncode(%#08x) = %#02x, the loop says %#02x", w, got, want)
		}
	}
}

func BenchmarkECCEncode(b *testing.B) {
	var sink uint8
	for i := 0; i < b.N; i++ {
		sink ^= eccEncode(uint32(i) * 0x9e3779b9)
	}
	_ = sink
}

func BenchmarkECCEncodeLoop(b *testing.B) {
	var sink uint8
	for i := 0; i < b.N; i++ {
		sink ^= eccEncodeLoop(uint32(i) * 0x9e3779b9)
	}
	_ = sink
}
