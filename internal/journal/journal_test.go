package journal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testHeader() Header {
	return Header{
		FormatMarker: Format, Campaign: "t", Shard: 0, Shards: 2,
		Total: 10, Universe: "deadbeefdeadbeef",
	}
}

func testEntries() []Entry {
	return []Entry{
		{Index: 0, ID: "s0", Class: "masked", Detail: "ran s0"},
		{Index: 2, ID: "s2", Class: "sdc", Detail: `quoted "detail" with
newline`},
		{Index: 4, ID: "s4", Class: "detected-safe", Panicked: true},
	}
}

// writeJSONLJournal writes a JSONL journal — the encoding journals had
// before every writer went binary — with the test header and entries,
// and returns its path and raw bytes.
func writeJSONLJournal(t *testing.T, entries []Entry) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j.jsonl")
	raw := encodeJSONL(testHeader(), entries)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func TestJournalRoundTrip(t *testing.T) {
	entries := testEntries()
	path, _ := writeJSONLJournal(t, entries)
	j, err := Read(path)
	if err != nil {
		t.Fatal(err)
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
	fi, _ := os.Stat(path)
	if j.ValidBytes != fi.Size() {
		t.Errorf("ValidBytes = %d, file size %d", j.ValidBytes, fi.Size())
	}
}

func TestJournalCreateRefusesExisting(t *testing.T) {
	path, _ := writeBinaryJournal(t, nil)
	if _, err := Create(path, testHeader()); err == nil {
		t.Fatal("Create overwrote an existing journal")
	}
}

// TestJournalTruncationAtEveryByte is the crash-recovery property: for
// every prefix of a valid journal, decoding either fails (cut inside
// the header) or yields exactly the complete-line prefix of the
// entries, with Truncated set iff a partial line was dropped. No
// prefix may ever decode to entries that were not in the original.
func TestJournalTruncationAtEveryByte(t *testing.T) {
	entries := testEntries()
	_, raw := writeJSONLJournal(t, entries)
	full, err := DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= len(raw); n++ {
		j, err := DecodeBytes(raw[:n])
		if err != nil {
			continue // cut inside the header: unusable, and says so
		}
		if len(j.Entries) > len(entries) {
			t.Fatalf("prefix %d: %d entries from a %d-entry journal", n, len(j.Entries), len(entries))
		}
		for i, e := range j.Entries {
			if e != entries[i] {
				t.Fatalf("prefix %d: entry %d = %+v, want %+v", n, i, e, entries[i])
			}
		}
		// Truncated must be set exactly when bytes beyond the valid
		// prefix were present.
		if j.Truncated != (int64(n) > j.ValidBytes) {
			t.Fatalf("prefix %d: Truncated=%v with ValidBytes=%d", n, j.Truncated, j.ValidBytes)
		}
		if j.ValidBytes > int64(n) {
			t.Fatalf("prefix %d: ValidBytes=%d beyond input", n, j.ValidBytes)
		}
	}
	if full.Truncated || len(full.Entries) != len(entries) {
		t.Fatalf("full decode: truncated=%v entries=%d", full.Truncated, len(full.Entries))
	}
}

// TestJournalAppendToTrimsPartialTail: resuming a journal whose last
// append was cut mid-line trims the tail and continues cleanly.
func TestJournalAppendToTrimsPartialTail(t *testing.T) {
	entries := testEntries()
	path, raw := writeJSONLJournal(t, entries)
	// Chop the file mid-way through the final line.
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	j, w, err := AppendTo(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if !j.Truncated || len(j.Entries) != len(entries)-1 {
		t.Fatalf("resumed journal: truncated=%v entries=%d", j.Truncated, len(j.Entries))
	}
	// Re-append the lost entry plus a new one.
	for _, e := range []Entry{entries[len(entries)-1], {Index: 6, ID: "s6", Class: "masked"}} {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Truncated || len(j2.Entries) != len(entries)+1 {
		t.Fatalf("after resume: truncated=%v entries=%d, want %d", j2.Truncated, len(j2.Entries), len(entries)+1)
	}
}

// TestWriterRefusesUnreadableEntries: an entry the decoder would refuse
// is refused by Append before any byte of it is written — an empty
// class, an index past the header's total, no scenario ID — in either
// codec, so the file still decodes whole, holding only the good entries.
func TestWriterRefusesUnreadableEntries(t *testing.T) {
	good := testEntries()
	bad := map[string]Entry{
		"empty class":  {Index: 1, ID: "s1"},
		"out of range": {Index: 10, ID: "s10", Class: "masked"},
		"negative":     {Index: -1, ID: "s-1", Class: "masked"},
		"no ID":        {Index: 1, Class: "masked"},
	}
	for name, open := range map[string]func(path string) (*Writer, error){
		"binary": func(path string) (*Writer, error) { return Create(path, testHeader()) },
		"JSONL": func(path string) (*Writer, error) {
			if err := os.WriteFile(path, encodeJSONL(testHeader(), nil), 0o644); err != nil {
				return nil, err
			}
			_, w, err := AppendTo(path, testHeader())
			return w, err
		},
	} {
		path := filepath.Join(t.TempDir(), "j")
		w, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range good {
			if err := w.Append(e); err != nil {
				t.Fatalf("%s: good entry %d: %v", name, i, err)
			}
			if i == 0 {
				for what, e := range bad {
					if err := w.Append(e); err == nil {
						t.Errorf("%s: appending an entry with %s succeeded", name, what)
					}
				}
			}
		}
		if n := w.Appends(); n != len(good) {
			t.Errorf("%s: %d appends counted, want %d", name, n, len(good))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		j, err := Read(path)
		if err != nil {
			t.Fatalf("%s: the journal no longer decodes: %v", name, err)
		}
		if j.Truncated || !reflect.DeepEqual(j.Entries, good) {
			t.Fatalf("%s: journal holds %+v (truncated %v), want %+v", name, j.Entries, j.Truncated, good)
		}
	}
}

// TestJournalZeroEntryRecovery covers the two header-boundary crash
// footprints: a file ending exactly at the header line (zero entries,
// clean) and a file whose only line is the header with its newline
// never flushed. Both must resume from index 0 — the second after
// AppendTo rewrites the header it trimmed.
func TestJournalZeroEntryRecovery(t *testing.T) {
	t.Run("header with newline", func(t *testing.T) {
		path, raw := writeJSONLJournal(t, nil)
		j, err := DecodeBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(j.Entries) != 0 || j.Truncated || j.ValidBytes != int64(len(raw)) {
			t.Fatalf("decode = %+v", j)
		}
		j2, w, err := AppendTo(path, testHeader())
		if err != nil {
			t.Fatal(err)
		}
		if len(j2.Entries) != 0 {
			t.Fatalf("resume found %d entries", len(j2.Entries))
		}
		if err := w.Append(Entry{Index: 0, ID: "s0", Class: "masked"}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		j3, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(j3.Entries) != 1 || j3.Truncated {
			t.Fatalf("after resume: %+v", j3)
		}
	})
	t.Run("header without newline", func(t *testing.T) {
		path, raw := writeJSONLJournal(t, nil)
		if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := DecodeBytes(raw[:len(raw)-1])
		if err != nil {
			t.Fatalf("complete-but-unterminated header refused: %v", err)
		}
		if !j.Truncated || j.ValidBytes != 0 || len(j.Entries) != 0 || j.Header != testHeader() {
			t.Fatalf("decode = %+v", j)
		}
		j2, w, err := AppendTo(path, testHeader())
		if err != nil {
			t.Fatal(err)
		}
		if !j2.Truncated || len(j2.Entries) != 0 {
			t.Fatalf("resume = %+v", j2)
		}
		if err := w.Append(Entry{Index: 0, ID: "s0", Class: "masked"}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// The rewritten file must be a well-formed one-entry journal.
		j3, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if j3.Truncated || j3.Header != testHeader() || len(j3.Entries) != 1 {
			t.Fatalf("after resume: %+v", j3)
		}
	})
	// A header cut mid-way is unidentifiable and must stay a hard error.
	_, raw := writeJSONLJournal(t, nil)
	if _, err := DecodeBytes(raw[:len(raw)/2]); err == nil {
		t.Fatal("half a header accepted")
	}
}

// TestJournalGarbageAfterValidTail: a partially-flushed final line
// consisting of a valid JSON object followed by garbage (two appends
// interleaved by a crash) has no terminating newline — it must be
// dropped as the truncated tail, never parsed as an entry, and the
// journal resumes from the last complete line.
func TestJournalGarbageAfterValidTail(t *testing.T) {
	entries := testEntries()
	path, raw := writeJSONLJournal(t, entries)
	tail := []byte("{\"i\":6,\"id\":\"s6\",\"class\":\"masked\"}{\"i\":7,\"id")
	if err := os.WriteFile(path, append(raw, tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Truncated || j.ValidBytes != int64(len(raw)) || len(j.Entries) != len(entries) {
		t.Fatalf("decode = truncated=%v validBytes=%d entries=%d, want %d/%d",
			j.Truncated, j.ValidBytes, len(j.Entries), len(raw), len(entries))
	}
	for _, e := range j.Entries {
		if e.Index == 6 {
			t.Fatal("unterminated tail parsed as an entry")
		}
	}
	j2, w, err := AppendTo(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if len(j2.Entries) != len(entries) {
		t.Fatalf("resume found %d entries, want %d", len(j2.Entries), len(entries))
	}
	if err := w.Append(Entry{Index: 6, ID: "s6", Class: "masked"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if j3.Truncated || len(j3.Entries) != len(entries)+1 {
		t.Fatalf("after resume: truncated=%v entries=%d", j3.Truncated, len(j3.Entries))
	}
}

// TestJournalAppendToRejectsHeaderMismatch: AppendTo refuses a journal
// whose header does not Match the campaign's, naming the field.
func TestJournalAppendToRejectsHeaderMismatch(t *testing.T) {
	path, _ := writeJSONLJournal(t, testEntries())
	for _, tc := range []struct {
		edit func(*Header)
		want string
	}{
		{func(h *Header) { h.Adaptive = true }, "written by a fixed-universe campaign, want an adaptive one"},
		{func(h *Header) { h.Campaign = "u" }, `campaign "t", want "u"`},
		{func(h *Header) { h.Shard = 1 }, "shard 0/2, want 1/2"},
		{func(h *Header) { h.Total = 11 }, "total 10, want 11"},
		{func(h *Header) { h.Universe = "0000000000000000" }, "universe deadbeefdeadbeef, want 0000000000000000"},
	} {
		h := testHeader()
		tc.edit(&h)
		if _, _, err := AppendTo(path, h); err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("AppendTo(%+v): err %v, want one ending %q", h, err, tc.want)
		}
	}
}

// TestJournalPartitionRule: both codecs carry a header's partition rule
// through a round trip, and AppendTo refuses a shard journal cut by the
// other rule with a *PartitionError naming both — in either direction,
// the rule-less header being the round-robin one.
func TestJournalPartitionRule(t *testing.T) {
	cut := testHeader()
	cut.Partition = PartitionInjectionTime
	for codec, encode := range map[Codec]func(Header, []Entry) []byte{JSONL: encodeJSONL, Binary: encodeBinary} {
		for _, pair := range [][2]Header{{cut, testHeader()}, {testHeader(), cut}} {
			written, resumed := pair[0], pair[1]
			path := filepath.Join(t.TempDir(), "j")
			if err := os.WriteFile(path, encode(written, nil), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := Read(path)
			if err != nil || j.Header != written {
				t.Fatalf("%s: read back %+v (err %v), wrote %+v", codec, j.Header, err, written)
			}
			_, _, err = AppendTo(path, resumed)
			var pe *PartitionError
			if !errors.As(err, &pe) || pe.Journal != written.Rule() || pe.Want != resumed.Rule() {
				t.Errorf("%s: resuming %q as %q: err %v, want a *PartitionError", codec, written.Rule(), resumed.Rule(), err)
			}
		}
	}
}

// TestJournalDigest: Match refuses an adaptive journal whose signatures
// another state digest computed with a *DigestError naming both — the
// name-less header of a journal written before headers named one being
// DigestFNV1a's — and leaves list headers, which carry no name, alone;
// both codecs carry the name through a resume, and a header without one
// encodes without the key.
func TestJournalDigest(t *testing.T) {
	adaptive := func(digest string) Header {
		h := testHeader()
		h.Shards, h.Adaptive, h.Digest = 1, true, digest
		return h
	}
	for _, tc := range []struct {
		name          string
		written, want Header
		refused       *DigestError // nil: Match accepts
	}{
		{"list", testHeader(), testHeader(), nil},
		{"adaptive, same digest", adaptive("mix64"), adaptive("mix64"), nil},
		{"adaptive, no name", adaptive(""), adaptive("mix64"), &DigestError{Journal: DigestFNV1a, Want: "mix64"}},
		{"adaptive, other digest", adaptive("other"), adaptive("mix64"), &DigestError{Journal: "other", Want: "mix64"}},
	} {
		for codec, encode := range map[Codec]func(Header, []Entry) []byte{JSONL: encodeJSONL, Binary: encodeBinary} {
			raw := encode(tc.written, nil)
			if tc.written.Digest == "" && strings.Contains(string(raw), `"digest"`) {
				t.Errorf("%s, %s: a header without a digest encodes one: %q", tc.name, codec, raw)
			}
			path := filepath.Join(t.TempDir(), "j")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			j, w, err := AppendTo(path, tc.want)
			var de *DigestError
			switch {
			case tc.refused == nil && err != nil:
				t.Errorf("%s, %s: refused: %v", tc.name, codec, err)
			case tc.refused == nil && j.Header != tc.written:
				t.Errorf("%s, %s: read back %+v, wrote %+v", tc.name, codec, j.Header, tc.written)
			case tc.refused != nil && (!errors.As(err, &de) || *de != *tc.refused):
				t.Errorf("%s, %s: err %v, want %v", tc.name, codec, err, tc.refused)
			}
			if w != nil {
				w.Close()
			}
		}
	}
}

func TestJournalDecodeRejectsCorruption(t *testing.T) {
	_, raw := writeJSONLJournal(t, testEntries())
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"no header", []byte("{\"i\":0,\"id\":\"s0\",\"class\":\"masked\"}\n")},
		{"wrong marker", []byte("{\"journal\":\"other/9\",\"campaign\":\"t\",\"shard\":0,\"shards\":1,\"total\":1,\"universe\":\"x\"}\n")},
		{"garbage interior line", []byte(strings.Replace(string(raw), "\"id\":\"s2\"", "\x00\x01", 1))},
		{"entry out of range", []byte(strings.Replace(string(raw), "{\"i\":2,", "{\"i\":99,", 1))},
		{"entry without class", []byte(strings.Replace(string(raw), "\"class\":\"sdc\",", "", 1))},
		{"shard out of range", []byte(strings.Replace(string(raw), "\"shard\":0", "\"shard\":7", 1))},
		{"unknown partition rule", []byte(strings.Replace(string(raw), "\"shards\":2", "\"shards\":2,\"partition\":\"diagonal\"", 1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeBytes(tc.data); err == nil {
				t.Errorf("corruption accepted: %q", tc.data)
			}
		})
	}
}

// TestJournalOpen: Open starts a missing journal fresh — binary, with nothing to
// replay — resumes an existing one in the codec it was written in, a
// JSONL journal included, and refuses a path it cannot read for any
// other reason than its absence instead of starting over beside it.
func TestJournalOpen(t *testing.T) {
	entries := testEntries()
	path := filepath.Join(t.TempDir(), "j")
	j, w, err := Open(path, testHeader())
	if err != nil || j != nil {
		t.Fatalf("fresh Open: journal %+v, err %v; want none to replay", j, err)
	}
	if err := w.Append(entries[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	legacy, _ := writeJSONLJournal(t, entries[:2])
	for _, tc := range []struct {
		path  string
		codec Codec
		have  int
	}{{path, Binary, 1}, {legacy, JSONL, 2}} {
		j, w, err := Open(tc.path, testHeader())
		if err != nil || len(j.Entries) != tc.have {
			t.Fatalf("reopening a %s journal: %v, %+v", tc.codec, err, j)
		}
		if err := w.Append(entries[2]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if j, err := Read(tc.path); err != nil || j.Codec != tc.codec || len(j.Entries) != tc.have+1 {
			t.Errorf("a %s journal after Open and Append: %v, %+v", tc.codec, err, j)
		}
	}
	for _, bad := range []string{filepath.Join(path, "j"), t.TempDir()} { // not a directory; a directory
		if _, _, err := Open(bad, testHeader()); err == nil || errors.Is(err, os.ErrNotExist) {
			t.Errorf("Open(%s): err %v, want the read error", bad, err)
		}
	}
}
