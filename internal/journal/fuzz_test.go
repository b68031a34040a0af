package journal

import (
	"bytes"
	"testing"
)

// fuzzSeed is the small valid journal both seed corpora start from.
func fuzzSeed() (Header, []Entry) {
	return Header{FormatMarker: Format, Campaign: "fz", Shard: 1, Shards: 4, Total: 8, Universe: "cafe0000cafe0000"},
		[]Entry{
			{Index: 1, ID: "a", Class: "masked"},
			{Index: 5, ID: "b", Class: "sdc", Detail: "x\ny", Panicked: true},
		}
}

// fuzzSeedAdaptiveBinaryJournal is the adaptive-campaign spelling:
// gappy proposal-sequence indices past Total, signature uvarints
// behind flags bit 1.
func fuzzSeedAdaptiveBinaryJournal() []byte {
	return encodeBinary(
		Header{FormatMarker: Format, Campaign: "fz-ad", Shard: 0, Shards: 1, Total: 4, Universe: "feed0000feed0000", Adaptive: true},
		[]Entry{
			{Index: 0, ID: "p0", Class: "masked", Sig: 0xdeadbeefcafe},
			{Index: 3, ID: "p3", Class: "sdc", Sig: 1},
			{Index: 9, ID: "p9", Class: "no-effect", Panicked: true, Sig: 1<<63 + 7},
		})
}

// FuzzJournalBinary extends the FuzzJournalReplay contract to the
// binary codec: DecodeBytes must never panic on arbitrary bytes
// carrying the binary magic, truncation/bit-flip recovery must obey
// the same ValidBytes/Truncated invariants, and anything accepted must
// round-trip bit-exact through a binary re-encode AND decode to the
// same journal through a JSONL re-encode — the two codecs are one
// format with two spellings.
func FuzzJournalBinary(f *testing.F) {
	valid := encodeBinary(fuzzSeed())
	f.Add(valid)
	f.Add(valid[:len(valid)-5])     // truncated mid-frame
	f.Add(valid[:len(binaryMagic)]) // magic only
	f.Add(valid[:len(binaryMagic)+6])
	f.Add(append([]byte{}, binaryMagic...))
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	torn := append([]byte{}, valid...)
	torn[len(torn)-1] ^= 0xff
	f.Add(torn)
	// Oversized length word right after the magic.
	f.Add(append(append([]byte{}, binaryMagic...), 0xff, 0xff, 0xff, 0x7f))
	// Adaptive journal: signature uvarints, indices past Total.
	adaptive := fuzzSeedAdaptiveBinaryJournal()
	f.Add(adaptive)
	f.Add(adaptive[:len(adaptive)-3]) // truncated mid-signature
	f.Fuzz(func(t *testing.T, data []byte) {
		// Force the binary decode path: graft the magic onto arbitrary
		// fuzz bytes so mutation explores frames, not JSONL.
		if SniffCodec(data) != Binary {
			data = append(append([]byte{}, binaryMagic...), data...)
		}
		j, err := DecodeBytes(data)
		if err != nil {
			return // detected: corrupt input refused
		}
		if j.Codec != Binary {
			t.Fatalf("sniffed codec %q for magic-prefixed input", j.Codec)
		}
		if j.ValidBytes > int64(len(data)) {
			t.Fatalf("ValidBytes %d > input %d", j.ValidBytes, len(data))
		}
		if j.Truncated != (j.ValidBytes < int64(len(data))) {
			t.Fatalf("Truncated=%v but ValidBytes=%d of %d", j.Truncated, j.ValidBytes, len(data))
		}
		if err := j.Header.Validate(); err != nil {
			t.Fatalf("accepted invalid header: %v", err)
		}
		for _, e := range j.Entries {
			if err := e.validate(j.Header); err != nil {
				t.Fatalf("accepted invalid entry: %v", err)
			}
		}
		// Binary re-encode: the accepted prefix must reproduce exactly.
		re, err := encodeBinaryHeader(j.Header)
		if err != nil {
			t.Fatal(err)
		}
		inPlace, headerLen := append([]byte(nil), re...), len(re)
		for _, e := range j.Entries {
			re = appendFrame(re, appendEntryPayload(nil, e))
			inPlace = AppendEntryFrame(inPlace, e) // what Writer.Append writes
		}
		if !bytes.Equal(inPlace, re) {
			t.Fatalf("the writer's in-place frame encoding differs from the reference:\n%x\n%x", inPlace, re)
		}
		// The entry frames alone are a fabric flush body: they decode to
		// the same entries, and — the wire has no tail to recover — not at
		// all once cut short or damaged.
		wire := inPlace[headerLen:]
		flushed, err := DecodeEntryFrames(nil, wire)
		if err != nil || len(flushed) != len(j.Entries) {
			t.Fatalf("flush body decodes to %d entries (%v), journal has %d", len(flushed), err, len(j.Entries))
		}
		for i := range flushed {
			if flushed[i] != j.Entries[i] {
				t.Fatalf("entry %d differs on the wire: %+v vs %+v", i, flushed[i], j.Entries[i])
			}
		}
		if len(wire) > 0 {
			if _, err := DecodeEntryFrames(nil, wire[:len(wire)-1]); err == nil {
				t.Fatal("torn flush body accepted")
			}
			damaged := append([]byte(nil), wire...)
			damaged[len(damaged)-1] ^= 0x80
			if _, err := DecodeEntryFrames(nil, damaged); err == nil {
				t.Fatal("flush body with a failing CRC accepted")
			}
			if _, err := DecodeEntryFrames(nil, re[len(binaryMagic):]); err == nil {
				t.Fatal("flush body starting with a header frame accepted")
			}
		}
		j2, err := DecodeBytes(re)
		if err != nil {
			t.Fatalf("binary re-encode does not decode: %v", err)
		}
		if j2.Header != j.Header || len(j2.Entries) != len(j.Entries) || j2.Truncated {
			t.Fatalf("binary re-encode changed the journal: %+v vs %+v", j2, j)
		}
		for i := range j.Entries {
			if j2.Entries[i] != j.Entries[i] {
				t.Fatalf("entry %d changed across binary re-encode: %+v vs %+v", i, j2.Entries[i], j.Entries[i])
			}
		}
		// Cross-codec: the same content spelled as JSONL decodes to the
		// same journal (Merge/resume semantics cannot depend on codec).
		j3, err := DecodeBytes(encodeJSONL(j.Header, j.Entries))
		if err != nil {
			t.Fatalf("JSONL re-spelling does not decode: %v", err)
		}
		if j3.Header != j.Header || len(j3.Entries) != len(j.Entries) {
			t.Fatalf("JSONL re-spelling changed the journal")
		}
		for i := range j.Entries {
			if j3.Entries[i] != j.Entries[i] {
				t.Fatalf("entry %d differs across codecs: %+v vs %+v", i, j3.Entries[i], j.Entries[i])
			}
		}
	})
}

// FuzzJournalReplay is the crash/corruption contract of the journal
// layer: DecodeBytes must never panic, must never fabricate entries a
// re-encode would not reproduce, and must never report more valid
// bytes than it was given. Truncated and corrupt inputs are detected —
// a journal that decodes cleanly round-trips bit-exact through
// re-encoding, so nothing corrupt can ever be silently merged.
func FuzzJournalReplay(f *testing.F) {
	valid := encodeJSONL(fuzzSeed())
	f.Add(valid)
	f.Add(valid[:len(valid)-7])                                     // truncated tail
	f.Add(valid[:bytes.IndexByte(valid, '\n')/2])                   // truncated header
	f.Add(bytes.Replace(valid, []byte(`"class"`), []byte("��"), 1)) // corrupt entry
	f.Add([]byte("{}\n"))
	f.Add([]byte("null\n{\"i\":0}\n"))
	f.Add([]byte{})
	f.Add(valid[:bytes.IndexByte(valid, '\n')+1]) // exactly the header, zero entries
	f.Add(valid[:bytes.IndexByte(valid, '\n')])   // complete header, newline never flushed
	// Unterminated tail that is a valid JSON object plus garbage — two
	// appends interleaved by a crash; must drop as truncated, not parse.
	f.Add(append(append([]byte{}, valid...), []byte(`{"i":3,"id":"c","class":"masked"}{"i":4,"id`)...))
	// Adaptive JSONL journal: sig fields, indices past Total.
	f.Add([]byte(`{"journal":"govp-campaign-journal/1","campaign":"ad","shard":0,"shards":1,"total":2,"universe":"feedfeed","adaptive":true}` + "\n" +
		`{"i":0,"id":"p0","class":"masked","sig":7}` + "\n" +
		`{"i":5,"id":"p5","class":"sdc","sig":18446744073709551615}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := DecodeBytes(data)
		if err != nil {
			return // detected: corrupt input refused
		}
		if j.ValidBytes > int64(len(data)) {
			t.Fatalf("ValidBytes %d > input %d", j.ValidBytes, len(data))
		}
		if j.Truncated != (j.ValidBytes < int64(len(data))) {
			t.Fatalf("Truncated=%v but ValidBytes=%d of %d", j.Truncated, j.ValidBytes, len(data))
		}
		if err := j.Header.Validate(); err != nil {
			t.Fatalf("accepted invalid header: %v", err)
		}
		for _, e := range j.Entries {
			if err := e.validate(j.Header); err != nil {
				t.Fatalf("accepted invalid entry: %v", err)
			}
		}
		// Re-encode the decoded journal and decode again: the accepted
		// content must survive a write/read cycle unchanged.
		j2, err := DecodeBytes(encodeJSONL(j.Header, j.Entries))
		if err != nil {
			t.Fatalf("re-encoded journal does not decode: %v", err)
		}
		if j2.Header != j.Header || len(j2.Entries) != len(j.Entries) || j2.Truncated {
			t.Fatalf("re-encode changed the journal: %+v vs %+v", j2, j)
		}
		for i := range j.Entries {
			if j2.Entries[i] != j.Entries[i] {
				t.Fatalf("entry %d changed across re-encode: %+v vs %+v", i, j2.Entries[i], j.Entries[i])
			}
		}
	})
}
