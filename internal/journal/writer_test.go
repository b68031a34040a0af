package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// manyEntries is a journal's worth of entries for the test header that
// spans several of the writer's buffers.
func manyEntries() []Entry {
	var es []Entry
	for i := 0; len(es)*40 < 5*bufSize; i++ {
		e := Entry{Index: i % testHeader().Total, ID: "s" + strings.Repeat("x", i%13), Class: "masked", Sig: uint64(i)}
		if i%5 == 0 {
			e.Class, e.Detail = "detected-safe", strings.Repeat("d", i%300)
		}
		es = append(es, e)
	}
	return es
}

// TestWriterBatchesAreTheReferenceBytes: the buffer changes when bytes
// reach the file, never which bytes — a binary journal of several
// buffers, and a JSONL one resumed through AppendTo, are the reference
// encodings once closed. Before Flush the file holds what the full
// buffers wrote; after it, every entry appended.
func TestWriterBatchesAreTheReferenceBytes(t *testing.T) {
	entries := manyEntries()
	t.Run("binary", func(t *testing.T) {
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
		want := encodeBinary(testHeader(), entries)
		raw, _ := os.ReadFile(path)
		if !bytes.HasPrefix(want, raw) || len(want)-len(raw) > bufSize || len(raw) < 4*bufSize {
			t.Fatalf("before Flush the file holds %d bytes, want a prefix of the %d within one buffer of the end", len(raw), len(want))
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if raw, _ := os.ReadFile(path); !bytes.Equal(raw, want) {
			t.Fatalf("after Flush the file holds %d bytes, want the %d of the reference encoding", len(raw), len(want))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if raw, _ := os.ReadFile(path); !bytes.Equal(raw, want) {
			t.Fatal("the closed journal differs from the reference encoding")
		}
	})
	t.Run("jsonl", func(t *testing.T) {
		path, _ := writeJSONLJournal(t, entries[:1])
		_, w, err := AppendTo(path, testHeader())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries[1:] {
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if raw, _ := os.ReadFile(path); !bytes.Equal(raw, encodeJSONL(testHeader(), entries)) {
			t.Fatal("the closed journal differs from the reference encoding")
		}
	})
}

// TestWriterOnAFullDisk: over /dev/full, where every write fails with
// ENOSPC, the writer never reports success. The Append whose record
// forces the buffer out returns the error, and so does every call after
// it; Close returns it whether or not a bound was reached, with the
// file closed.
func TestWriterOnAFullDisk(t *testing.T) {
	full := func(t *testing.T) *Writer {
		f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
		if err != nil {
			t.Skipf("no /dev/full: %v", err)
		}
		return newWriter(f, testHeader(), Binary)
	}
	closed := func(t *testing.T, w *Writer) {
		t.Helper()
		if err := w.Close(); !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("Close returned %v, want ENOSPC", err)
		}
		if err := w.f.Close(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("Close left the file open: closing it again returned %v", err)
		}
	}
	e := Entry{Index: 1, ID: "s1", Class: "masked", Detail: strings.Repeat("d", 100)}
	t.Run("bound reached", func(t *testing.T) {
		w := full(t)
		var err error
		n := 0
		for ; err == nil; n++ {
			if n > bufSize {
				t.Fatal("no Append failed")
			}
			err = w.Append(e)
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("Append %d returned %v, want ENOSPC", n, err)
		}
		if fit := bufSize / len(AppendEntryFrame(nil, e)); n < fit {
			t.Errorf("Append %d failed, before a buffer of %d entries was full", n, fit)
		}
		if err := w.Append(e); !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("the Append after a failed write returned %v, want ENOSPC", err)
		}
		if err := w.Flush(); !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("Flush after a failed write returned %v, want ENOSPC", err)
		}
		closed(t, w)
	})
	t.Run("entries only in the buffer", func(t *testing.T) {
		w := full(t)
		for i := 0; i < 3; i++ {
			if err := w.Append(e); err != nil {
				t.Fatalf("Append %d wrote: %v", i, err)
			}
		}
		closed(t, w)
	})
}

// TestWriterBufferIsReused: a closed writer's buffer is the next one's,
// so a process that opens a journal per round allocates no buffer per
// round.
func TestWriterBufferIsReused(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(filepath.Join(dir, "a"), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	first := &w.buf[:1][0]
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testEntries()[0]); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Append after Close returned %v, want ErrClosed", err)
	}
	w, err = Create(filepath.Join(dir, "b"), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if &w.buf[:1][0] != first {
		t.Error("the next writer allocated a buffer of its own")
	}
}
