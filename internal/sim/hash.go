package sim

import "math"

// Incremental state hashing for convergence detection: a faulty run
// that provably returns to the golden trajectory can stop simulating
// early and inherit the golden classification (the redundant-suffix
// insight of dynamic-slicing fault-injection accelerators). The hash
// must cover everything that can influence either future behavior or
// the final observation — model state via Hashable, scheduler state
// via Kernel.HashScheduler — and nothing that is pure diagnostics
// (propagation traces, activity counters), so that transient faults
// whose effects wash out still converge. Every digest in this package —
// a StateHash, a PagedState page, a kernel's elaboration shape — is a
// chain of Mix64 steps, one per 64-bit word.

// fnvOffset64, FNV-1a's offset basis, is the seed a StateHash and each
// PagedState page digest start from.
const fnvOffset64 = 14695981039346656037

// Digest names the digest StateHash computes, for the journals that keep
// its values: an adaptive journal's header records it, so signatures of
// two digests are never mixed on resume.
const Digest = "mix64"

// Mix64 folds one 64-bit word into a running digest: the step of every
// digest in this package, exported for append-only logs that keep a
// rolling digest beside a PagedState (fold each record as it is
// appended and the digest stays a pure function of the log's contents).
// It is a bijection of the word for a fixed digest and of the digest for
// a fixed word (xor, an odd multiply and h ^ h>>32 all invert), so two
// equal-length fold sequences that differ in one word never share a
// digest (DESIGN §14).
func Mix64(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// StateHash accumulates a 64-bit digest over typed state words, one
// Mix64 step per word. The zero value is NOT ready; use NewStateHash
// (or Reset). It is a value type — pass by pointer, read with Sum.
type StateHash struct {
	h uint64
}

// NewStateHash returns an initialized digest.
func NewStateHash() StateHash { return StateHash{h: fnvOffset64} }

// Reset reinitializes the digest.
func (s *StateHash) Reset() { s.h = fnvOffset64 }

// Sum reports the current digest value.
func (s *StateHash) Sum() uint64 { return s.h }

// Byte folds one byte.
func (s *StateHash) Byte(b byte) { s.h = Mix64(s.h, uint64(b)) }

// U64 folds a 64-bit word.
func (s *StateHash) U64(v uint64) { s.h = Mix64(s.h, v) }

// U32 folds a 32-bit word.
func (s *StateHash) U32(v uint32) { s.U64(uint64(v)) }

// Int folds an int.
func (s *StateHash) Int(v int) { s.U64(uint64(int64(v))) }

// Bool folds a boolean.
func (s *StateHash) Bool(v bool) {
	if v {
		s.Byte(1)
	} else {
		s.Byte(0)
	}
}

// Time folds a simulated time.
func (s *StateHash) Time(t Time) { s.U64(uint64(t)) }

// F64 folds a float64 by its IEEE-754 bits. NaN payloads differ, so
// models using NaN sentinels should fold a presence bit instead.
func (s *StateHash) F64(v float64) { s.U64(math.Float64bits(v)) }

// Bytes folds a byte slice, length-prefixed so adjacent slices cannot
// alias into the same digest.
func (s *StateHash) Bytes(b []byte) {
	s.Int(len(b))
	s.h = fold(s.h, b)
}

// Str folds a string as Bytes folds its bytes.
func (s *StateHash) Str(v string) {
	s.Int(len(v))
	s.h = fold(s.h, v)
}

// fold folds b into h eight little-endian bytes a step, then the tail a
// byte a step: the loop of Bytes, Str and every page digest.
func fold[T string | []byte](h uint64, b T) uint64 {
	for ; len(b) >= 8; b = b[8:] {
		h = Mix64(h, uint64(b[0])|uint64(b[1])<<8|uint64(b[2])<<16|uint64(b[3])<<24|
			uint64(b[4])<<32|uint64(b[5])<<40|uint64(b[6])<<48|uint64(b[7])<<56)
	}
	for i := 0; i < len(b); i++ {
		h = Mix64(h, uint64(b[i]))
	}
	return h
}

// StateSignature digests a model's final state into the 64-bit
// outcome signature the adaptive campaign plane is keyed by: two runs
// whose models report equal signatures ended in the same mutable
// state. Callers fold run-level verdicts (classification, detail) on
// top with MixSignature — the model digest alone deliberately excludes
// diagnostics, mirroring the Hashable contract.
func StateSignature(m Hashable) uint64 {
	h := NewStateHash()
	m.HashState(&h)
	return h.Sum()
}

// MixSignature folds extra words into a signature (classification
// bytes, detail hashes), never returning 0 so a computed signature is
// distinguishable from "not computed".
func MixSignature(sig uint64, words ...uint64) uint64 {
	h := StateHash{h: fnvOffset64}
	h.U64(sig)
	for _, w := range words {
		h.U64(w)
	}
	if s := h.Sum(); s != 0 {
		return s
	}
	return 1
}

// Hashable is the convention prototypes implement to support
// convergence early-exit, companion to Snapshottable: HashState folds
// every piece of mutable model state that can influence future
// behavior or the final observation into h. Pure diagnostics that
// nothing reads back — propagation traces, transaction logs — must be
// left out, or transient faults that leave a diagnostic residue but no
// behavioral one would never converge. Two models whose HashState
// digests are equal (and whose kernels' HashScheduler digests are
// equal) must produce byte-identical futures and observations.
type Hashable interface {
	HashState(h *StateHash)
}

// SnapshotModelState is m.SnapshotState(prev).
//
// Deprecated: call m.SnapshotState(prev).
func SnapshotModelState(m Snapshottable, prev any) any { return m.SnapshotState(prev) }

// Elaborated reports how many events and processes the kernel
// currently holds. Convergence trajectories record these right after
// model elaboration so live-run hashes can be restricted to the model
// prefix, excluding the stressor's own event/process.
func (k *Kernel) Elaborated() (events, procs int) {
	return len(k.events), len(k.procs)
}

// HashScheduler folds the kernel's scheduler state into h, restricted
// to the first nEvents events and nProcs processes (pass the counts
// Elaborated reported on the golden kernel): the clock, every live
// pending notification of a retained event — ordered by (at, seq) but
// hashed as (at, event index), because absolute sequence numbers
// differ between runs that scheduled extra (stressor) notifications —
// and the retained processes' run states. The kernel must be quiescent
// (between Run calls); activity counters are deliberately excluded,
// they are diagnostics and differ between golden and faulty runs that
// behave identically after convergence.
func (k *Kernel) HashScheduler(h *StateHash, nEvents, nProcs int) {
	h.Time(k.now)

	// Collect live timed entries targeting retained events into the
	// kernel-owned scratch buffer (no allocation in steady state), sort
	// by (at, seq) — the deterministic firing order — then fold
	// (at, event index) pairs.
	scratch := k.hashScratch[:0]
	for _, te := range k.timed {
		if te.ev.idx < nEvents && te.ev.pending == notifyTimed && te.ev.pendingSeq == te.seq {
			scratch = append(scratch, cpTimed{at: te.at, seq: te.seq, ev: te.ev.idx})
		}
	}
	sortCpTimed(scratch)
	k.hashScratch = scratch
	h.Int(len(scratch))
	for _, te := range scratch {
		h.Time(te.at)
		h.Int(te.ev)
	}

	// Delta/immediate notifications cannot be pending on a quiescent
	// kernel, so the (at, index) list above fully determines every
	// retained event's notification state; only process run states
	// remain.
	for _, p := range k.procs[:nProcs] {
		h.Byte(byte(p.state))
	}
}
