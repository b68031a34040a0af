package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// benchJournal builds an n-entry journal shaped like real campaign
// output (short classifier strings, occasional details).
func benchJournal(n int) (Header, []Entry) {
	h := Header{
		FormatMarker: Format, Campaign: "bench", Shard: 0, Shards: 1,
		Total: n, Universe: "deadbeefdeadbeef",
	}
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Index: i, ID: fmt.Sprintf("seu/reg%03d@t%d", i%64, i), Class: "masked"}
		if i%7 == 0 {
			entries[i].Class = "detected-safe"
			entries[i].Detail = "plausibility inhibit latched at 12ms"
		}
	}
	return h, entries
}

func encodeJSONL(h Header, entries []Entry) []byte {
	var buf bytes.Buffer
	line, _ := json.Marshal(h)
	buf.Write(append(line, '\n'))
	for _, e := range entries {
		line, _ := json.Marshal(e)
		buf.Write(append(line, '\n'))
	}
	return buf.Bytes()
}

func encodeBinary(h Header, entries []Entry) []byte {
	data, _ := encodeBinaryHeader(h)
	for _, e := range entries {
		data = appendFrame(data, appendEntryPayload(nil, e))
	}
	return data
}

// BenchmarkJournalCodec pins the binary codec's encode+decode
// throughput advantage over JSONL — the reason every journal is
// created binary. Reported bytes/op is the
// encoded size, so ns/op comparisons are per full 4096-entry journal.
func BenchmarkJournalCodec(b *testing.B) {
	const n = 4096
	h, entries := benchJournal(n)
	codecs := []struct {
		name   string
		encode func(Header, []Entry) []byte
	}{
		{"jsonl", encodeJSONL},
		{"binary", encodeBinary},
	}
	for _, c := range codecs {
		data := c.encode(h, entries)
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if out := c.encode(h, entries); len(out) != len(data) {
					b.Fatal("unstable encode")
				}
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				j, err := DecodeBytes(data)
				if err != nil || len(j.Entries) != n {
					b.Fatalf("decode: %v (%d entries)", err, len(j.Entries))
				}
			}
		})
	}
}
