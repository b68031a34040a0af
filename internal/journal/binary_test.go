package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeBinaryJournal creates a journal file via the Writer path, which
// writes binary.
func writeBinaryJournal(t *testing.T, entries []Entry) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j.bin")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Appends() != len(entries) {
		t.Fatalf("Appends() = %d, want %d", w.Appends(), len(entries))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func TestBinaryRoundTrip(t *testing.T) {
	entries := testEntries()
	path, raw := writeBinaryJournal(t, entries)
	if SniffCodec(raw) != Binary {
		t.Fatalf("SniffCodec = %q, want binary", SniffCodec(raw))
	}
	j, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Codec != Binary {
		t.Errorf("Codec = %q, want binary", j.Codec)
	}
	if j.Header != testHeader() {
		t.Errorf("header = %+v", j.Header)
	}
	if !reflect.DeepEqual(j.Entries, entries) {
		t.Errorf("entries = %+v, want %+v", j.Entries, entries)
	}
	if j.Truncated {
		t.Error("clean journal reported truncated")
	}
	if j.ValidBytes != int64(len(raw)) {
		t.Errorf("ValidBytes = %d, file size %d", j.ValidBytes, len(raw))
	}
	// The Writer path and the in-memory encoder must agree byte for byte.
	if mem := encodeBinary(testHeader(), entries); string(mem) != string(raw) {
		t.Error("Writer output differs from in-memory encoding")
	}
}

// TestBinaryMatchesJSONLSemantics decodes the same header+entries from
// both codecs and requires identical decoded journals (modulo Codec and
// ValidBytes, which are representation facts).
func TestBinaryMatchesJSONLSemantics(t *testing.T) {
	entries := testEntries()
	_, jsonlRaw := writeJSONLJournal(t, entries)
	_, binRaw := writeBinaryJournal(t, entries)
	ja, err := DecodeBytes(jsonlRaw)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := DecodeBytes(binRaw)
	if err != nil {
		t.Fatal(err)
	}
	if ja.Header != jb.Header || !reflect.DeepEqual(ja.Entries, jb.Entries) {
		t.Fatalf("codecs disagree:\njsonl %+v\nbinary %+v", ja, jb)
	}
}

// TestBinaryTruncationAtEveryByte is the binary twin of the JSONL
// truncation sweep: cutting the file at any byte must either decode
// with Truncated set (entries a strict prefix, ValidBytes at a frame
// boundary) or be refused — never panic, never fabricate entries.
func TestBinaryTruncationAtEveryByte(t *testing.T) {
	entries := testEntries()
	_, raw := writeBinaryJournal(t, entries)
	headerLen := len(encodeBinary(testHeader(), nil))
	for cut := 0; cut <= len(raw); cut++ {
		j, err := DecodeBytes(raw[:cut])
		if cut < headerLen {
			if err == nil {
				t.Fatalf("cut %d (inside header): accepted", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if j.ValidBytes > int64(cut) {
			t.Fatalf("cut %d: ValidBytes %d", cut, j.ValidBytes)
		}
		// Exact frame boundaries decode clean; everywhere else the
		// partial trailing frame is dropped as truncation.
		if j.Truncated != (j.ValidBytes < int64(cut)) {
			t.Fatalf("cut %d: Truncated=%v ValidBytes=%d", cut, j.Truncated, j.ValidBytes)
		}
		if len(j.Entries) > len(entries) {
			t.Fatalf("cut %d: fabricated entries %+v", cut, j.Entries)
		}
		for i, e := range j.Entries {
			if e != entries[i] {
				t.Fatalf("cut %d: entry %d = %+v, want %+v", cut, i, e, entries[i])
			}
		}
	}
}

// TestBinaryTornFinalFrame damages the CRC of the last frame: that is
// the torn-write footprint and must recover as truncation at the
// previous frame boundary.
func TestBinaryTornFinalFrame(t *testing.T) {
	entries := testEntries()
	_, raw := writeBinaryJournal(t, entries)
	damaged := append([]byte{}, raw...)
	damaged[len(damaged)-1] ^= 0xff
	j, err := DecodeBytes(damaged)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Truncated {
		t.Fatal("torn final frame not reported truncated")
	}
	if len(j.Entries) != len(entries)-1 {
		t.Fatalf("entries = %d, want %d", len(j.Entries), len(entries)-1)
	}
	withoutLast := encodeBinary(testHeader(), entries[:len(entries)-1])
	if j.ValidBytes != int64(len(withoutLast)) {
		t.Fatalf("ValidBytes = %d, want %d", j.ValidBytes, len(withoutLast))
	}
}

// TestBinaryMidFileCorruptionRefused flips a byte in a non-final frame:
// with complete frames following, that cannot be truncation and the
// decode must hard-fail rather than resume over silent damage.
func TestBinaryMidFileCorruptionRefused(t *testing.T) {
	entries := testEntries()
	_, raw := writeBinaryJournal(t, entries)
	headerLen := len(encodeBinary(testHeader(), nil))
	damaged := append([]byte{}, raw...)
	damaged[headerLen+6] ^= 0x40 // inside the first entry frame's payload
	if _, err := DecodeBytes(damaged); err == nil {
		t.Fatal("mid-file corruption decoded cleanly")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error %q does not identify corruption", err)
	}
}

// TestBinaryOversizedLengthRefused writes an absurd frame length word.
func TestBinaryOversizedLengthRefused(t *testing.T) {
	raw := encodeBinary(testHeader(), nil)
	raw = append(raw, 0xff, 0xff, 0xff, 0xff)
	if _, err := DecodeBytes(raw); err == nil {
		t.Fatal("oversized length word accepted")
	}
}

// TestBinaryAppendToResumesAndAdoptsCodec truncates a binary journal
// mid-frame, reopens it with AppendTo, and appends more entries: the
// tail must be trimmed and the new appends must stay binary.
func TestBinaryAppendToResumesAndAdoptsCodec(t *testing.T) {
	entries := testEntries()
	path, raw := writeBinaryJournal(t, entries)
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	j, w, err := AppendTo(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Entries) != len(entries)-1 {
		t.Fatalf("resumed with %d entries, want %d", len(j.Entries), len(entries)-1)
	}
	if err := w.Append(entries[len(entries)-1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Codec != Binary || j2.Truncated {
		t.Fatalf("resumed journal codec=%q truncated=%v", j2.Codec, j2.Truncated)
	}
	if !reflect.DeepEqual(j2.Entries, entries) {
		t.Fatalf("entries after resume = %+v, want %+v", j2.Entries, entries)
	}
	got, _ := os.ReadFile(path)
	if string(got) != string(raw) {
		t.Error("trim+append did not reproduce the original bytes")
	}
}

// TestBinaryHeaderOnlyTruncationRefused cuts inside the header frame:
// unlike JSONL's unterminated-header special case, a binary file
// without a complete header frame is unidentifiable and refused.
func TestBinaryHeaderOnlyTruncationRefused(t *testing.T) {
	raw := encodeBinary(testHeader(), nil)
	for _, cut := range []int{len(binaryMagic), len(binaryMagic) + 4, len(raw) - 1} {
		if _, err := DecodeBytes(raw[:cut]); err == nil {
			t.Fatalf("cut %d inside header accepted", cut)
		}
	}
}

// TestBinaryEntryFrameValidation feeds malformed entry frames.
func TestBinaryEntryFrameValidation(t *testing.T) {
	base := encodeBinary(testHeader(), nil)
	badFlags := appendEntryPayload(nil, Entry{Index: 1, ID: "x", Class: "c"})
	badFlags[len(badFlags)-1] = 0x02
	cases := map[string][]byte{
		"empty frame":        appendFrame(append([]byte{}, base...), nil),
		"unknown kind":       appendFrame(append([]byte{}, base...), []byte{'Z', 1, 2}),
		"bad flags":          appendFrame(append([]byte{}, base...), badFlags),
		"out-of-range index": appendFrame(append([]byte{}, base...), appendEntryPayload(nil, Entry{Index: 99, ID: "x", Class: "c"})),
		"second header":      appendFrame(append([]byte{}, base...), append([]byte{frameHeader}, []byte(`{}`)...)),
	}
	for name, data := range cases {
		if _, err := DecodeBytes(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBinaryAppendAllocatesNothing: a warm binary Writer encodes every
// entry into its own buffer — a campaign's journal costs no heap object
// per run. (TestBinaryRoundTrip holds the bytes to the reference
// encoding.)
func TestBinaryAppendAllocatesNothing(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "j.bin"), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	e := Entry{Index: 3, ID: "open@caps.accel0.harness@17ms", Class: "detected-safe", Detail: strings.Repeat("d", 200), Sig: 1 << 40}
	if err := w.Append(e); err != nil { // sizes the buffer
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("%v allocations per binary Append, want 0", avg)
	}
}

// TestVerify: Verify reports a whole journal's header and entry count
// without decoding an entry, and refuses what a decode would refuse and
// also the torn tail a decode trims: a CRC failing anywhere, a cut final
// frame, a non-entry frame. A JSONL journal is decoded to be counted.
func TestVerify(t *testing.T) {
	path, raw := writeBinaryJournal(t, testEntries())
	h, n, err := Verify(path)
	if err != nil || n != len(testEntries()) || h.Match(testHeader()) != nil || h.FormatMarker != Format {
		t.Fatalf("clean journal: header %+v, %d entries, %v", h, n, err)
	}
	header := len(binaryMagic) + 4 + 1 + len(mustJSON(t, testHeader())) + 4
	for name, data := range map[string][]byte{
		"flipped entry byte":  flip(raw, header+6),
		"flipped header byte": flip(raw, len(binaryMagic)+6),
		"torn final frame":    raw[:len(raw)-3],
		"header only, torn":   raw[:header-1],
		"second header":       append(append([]byte{}, raw...), raw[len(binaryMagic):header]...),
	} {
		if _, _, err := verifyBytes(data); err == nil {
			t.Errorf("%s: verified", name)
		}
	}
	if _, n, err := verifyBytes(raw[:header]); err != nil || n != 0 {
		t.Errorf("header alone: %d entries, %v", n, err)
	}
	jsonl, _ := writeJSONLJournal(t, testEntries())
	if _, n, err := Verify(jsonl); err != nil || n != len(testEntries()) {
		t.Errorf("JSONL journal: %d entries, %v", n, err)
	}
	if _, _, err := verifyBytes(encodeJSONL(testHeader(), testEntries())[:40]); err == nil {
		t.Error("torn JSONL journal verified")
	}
}

func flip(data []byte, at int) []byte {
	out := append([]byte{}, data...)
	out[at] ^= 0x01
	return out
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
