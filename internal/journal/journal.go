// Package journal implements the append-only run journal that makes
// fault-injection campaigns interruptible and shardable: every
// completed scenario run is one record, so a campaign killed
// mid-flight resumes by replaying the journal and skipping what is
// recorded, and the journals of a completed shard set merge into the
// unsharded result.
//
// The first record is the Header (self-identifying via the "journal"
// format marker); every later one is an Entry. Journals are created
// binary — CRC-checked frames, see binary.go; JSONL journals from
// before that still decode, resume and merge. Appends are
// record-atomic in practice, and the decoder distinguishes a partial
// trailing record (Truncated, safe to resume from after trimming) from
// corruption anywhere else (a hard error, never silently merged).
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
)

// Format is the header marker identifying journal files. Bump the
// suffix on incompatible layout changes.
const Format = "govp-campaign-journal/1"

// Header is the first line of a journal: which campaign and shard the
// file belongs to, and a fingerprint of the scenario universe so a
// journal can never be resumed or merged against the wrong campaign.
type Header struct {
	// FormatMarker must equal Format.
	FormatMarker string `json:"journal"`
	// Campaign is the campaign name.
	Campaign string `json:"campaign"`
	// Shard and Shards identify the partition this journal covers
	// (0/1 for an unsharded campaign).
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Partition names the rule that assigned unique-run positions to
	// the Shards journals (PartitionInjectionTime); it is empty for an
	// unsharded campaign and for shard journals written before the
	// field existed, which were partitioned PartitionRoundRobin.
	Partition string `json:"partition,omitempty"`
	// Total is the number of scenarios in the full (unsharded,
	// pre-dedup) universe.
	Total int `json:"total"`
	// Universe fingerprints the scenario universe (stressor.UniverseHash).
	Universe string `json:"universe"`
	// Adaptive marks journals written by an adaptive campaign: entry
	// indices are strategy proposal sequence numbers (gappy where
	// equivalence pruning skipped a simulation), not positions in a
	// pre-enumerated universe, so they may exceed Total — Total then
	// records the simulated-run budget, and Universe fingerprints the
	// strategy configuration instead of a scenario list.
	Adaptive bool `json:"adaptive,omitempty"`
}

// The partition rules a shard journal's header can name.
const (
	// PartitionRoundRobin gave position u to shard u mod Shards. A
	// header with no Partition means it; no writer records it by name.
	PartitionRoundRobin = "round-robin"
	// PartitionInjectionTime gives each shard one contiguous range of
	// the positions ordered by injection time.
	PartitionInjectionTime = "injection-time"
)

// Rule is the partition rule the header's shard set was cut by.
func (h Header) Rule() string {
	if h.Partition == "" {
		return PartitionRoundRobin
	}
	return h.Partition
}

// PartitionError refuses a shard journal cut by another partition rule
// than the campaign resuming it, or the rest of the set merging with
// it: the two rules give a position to different shards, so resuming
// across them would skip positions and merging would leave holes.
type PartitionError struct {
	Shard, Shards int
	// Journal is the rule the refused journal was written under, Want
	// the rule it was checked against.
	Journal, Want string
}

func (e *PartitionError) Error() string {
	return fmt.Sprintf("journal: shard %d/%d journal is partitioned %s, want %s", e.Shard, e.Shards, e.Journal, e.Want)
}

// CheckRule returns a *PartitionError when a shard journal with header
// h cannot stand where one cut by want's rule is expected; an
// unsharded journal fits under any rule.
func (h Header) CheckRule(want Header) error {
	if h.Shards > 1 && h.Rule() != want.Rule() {
		return &PartitionError{Shard: h.Shard, Shards: h.Shards, Journal: h.Rule(), Want: want.Rule()}
	}
	return nil
}

// Validate reports structural problems with the header.
func (h Header) Validate() error {
	switch {
	case h.FormatMarker != Format:
		return fmt.Errorf("journal: bad format marker %q (want %q)", h.FormatMarker, Format)
	case h.Partition != "" && h.Partition != PartitionInjectionTime:
		return fmt.Errorf("journal: unknown partition rule %q", h.Partition)
	case h.Shards < 1:
		return fmt.Errorf("journal: shards = %d, want >= 1", h.Shards)
	case h.Shard < 0 || h.Shard >= h.Shards:
		return fmt.Errorf("journal: shard %d out of range 0..%d", h.Shard, h.Shards-1)
	case h.Total < 0:
		return fmt.Errorf("journal: negative scenario total %d", h.Total)
	case h.Universe == "":
		return fmt.Errorf("journal: empty universe hash")
	}
	return nil
}

// Entry records one completed scenario run.
type Entry struct {
	// Index is the scenario's index in the full (pre-dedup) universe.
	// Under dedup only representative runs are journaled; duplicates
	// are reconstructed at merge/resume time.
	Index int `json:"i"`
	// ID is the scenario ID, cross-checked against the universe on
	// replay so a stale journal cannot silently poison a campaign.
	ID string `json:"id"`
	// Class is the outcome classification name (fault.Classification.String).
	Class string `json:"class"`
	// Detail is the outcome's human-readable detail.
	Detail string `json:"detail,omitempty"`
	// Panicked marks runs whose RunFunc panicked and was recovered.
	Panicked bool `json:"panicked,omitempty"`
	// Sig is the outcome's equivalence-class signature
	// (fault.Outcome.Signature); 0 when the run had none. Adaptive
	// campaigns persist it so a resumed run can rebuild its strategy's
	// novelty state from the journal alone.
	Sig uint64 `json:"sig,omitempty"`
}

// validate checks an entry against its journal's header.
func (e Entry) validate(h Header) error {
	switch {
	case e.Index < 0 || (!h.Adaptive && e.Index >= h.Total):
		return fmt.Errorf("journal: entry index %d out of range 0..%d", e.Index, h.Total-1)
	case e.ID == "":
		return fmt.Errorf("journal: entry %d without scenario ID", e.Index)
	case e.Class == "":
		return fmt.Errorf("journal: entry %d (%s) without class", e.Index, e.ID)
	}
	return nil
}

// Journal is a decoded journal file.
type Journal struct {
	Header  Header
	Entries []Entry
	// Codec is the encoding the file used (sniffed by DecodeBytes).
	// AppendTo keeps appending in the same codec.
	Codec Codec
	// Truncated reports that a partial trailing line (an append cut
	// short by a crash) was dropped. A truncated journal is valid to
	// resume from — AppendTo trims the tail first — but refuses to
	// merge.
	Truncated bool
	// ValidBytes is the length of the complete-line prefix; AppendTo
	// truncates the file to this length before appending.
	ValidBytes int64
}

// DecodeBytes parses journal bytes, sniffing the codec: data starting
// with the binary magic decodes as length-prefixed frames, everything
// else as JSONL lines.
//
// For JSONL, every complete line ends in '\n'; an unterminated final
// line — the footprint of an append cut short by a crash — sets
// Truncated and is dropped, even if it happens to parse (a later
// append must never concatenate onto it). A malformed terminated line,
// a missing or invalid header, or a structurally invalid entry is an
// error: corruption is detected, never merged. The binary decoder
// applies the same policy to frames (see decodeBinary).
func DecodeBytes(data []byte) (*Journal, error) {
	if SniffCodec(data) == Binary {
		return decodeBinary(data)
	}
	j := &Journal{Codec: JSONL}
	headerDone := false
	off := int64(0)
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			// Partial trailing append: resumable after trimming, but
			// unusable without its newline.
			if !headerDone {
				// A crash can cut even the very first write short. When
				// the unterminated bytes are exactly a complete, valid
				// header the file is identifiable — a resumable
				// zero-entry journal whose header AppendTo rewrites after
				// trimming. Anything less is unidentifiable and refused.
				var h Header
				if err := json.Unmarshal(data, &h); err != nil || h.Validate() != nil {
					return nil, fmt.Errorf("journal: truncated before a complete header")
				}
				j.Header = h
				headerDone = true
			}
			j.Truncated = true
			break
		}
		line := data[:i]
		data = data[i+1:]
		lineLen := int64(len(line)) + 1
		if !headerDone {
			var h Header
			if err := json.Unmarshal(line, &h); err != nil {
				return nil, fmt.Errorf("journal: bad header line: %w", err)
			}
			if err := h.Validate(); err != nil {
				return nil, err
			}
			j.Header = h
			headerDone = true
			off += lineLen
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("journal: corrupt entry line after %d bytes: %w", off, err)
		}
		if err := e.validate(j.Header); err != nil {
			return nil, err
		}
		j.Entries = append(j.Entries, e)
		off += lineLen
	}
	if !headerDone {
		return nil, fmt.Errorf("journal: empty or missing header")
	}
	j.ValidBytes = off
	return j, nil
}

// Read decodes the journal file at path.
func Read(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	j, err := DecodeBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return j, nil
}

// Writer appends entries to a journal file in a fixed codec. It is
// safe for concurrent use by the workers of a parallel campaign.
type Writer struct {
	mu      sync.Mutex
	f       *os.File
	codec   Codec
	appends int
	// frame is the binary codec's encode buffer, reused under mu.
	frame []byte
}

// Create starts a new binary journal at path, writing the header. It
// refuses to overwrite an existing file: journals are resumable state,
// so a stale one must be resumed (AppendTo) or deleted explicitly.
func Create(path string, h Header) (*Writer, error) {
	return CreateCodec(path, h, Binary)
}

// CreateCodec is Create with an explicit on-disk encoding.
//
// Deprecated: every journal is created binary (Create). CreateCodec
// stays only for the benchmark's JSONL encode probe and goes with it
// (ROADMAP 1(a)).
func CreateCodec(path string, h Header, codec Codec) (*Writer, error) {
	h.FormatMarker = Format
	if err := h.Validate(); err != nil {
		return nil, err
	}
	var head []byte
	switch codec {
	case JSONL:
		line, err := json.Marshal(h)
		if err != nil {
			return nil, err
		}
		head = append(line, '\n')
	case Binary:
		var err error
		if head, err = encodeBinaryHeader(h); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("journal: unknown codec %q", codec)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w (resume an existing journal with AppendTo, or delete it)", err)
	}
	if _, err := f.Write(head); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, codec: codec}, nil
}

// AppendTo reopens an existing journal for appending, adopting
// whatever codec the file already uses. The on-disk header must match
// h exactly (same campaign, shard layout and universe); a partial
// trailing line or frame left by a crash is trimmed first. It returns
// the decoded journal alongside the writer so the caller can replay
// the recorded entries.
func AppendTo(path string, h Header) (*Journal, *Writer, error) {
	h.FormatMarker = Format
	if err := h.Validate(); err != nil {
		return nil, nil, err
	}
	j, err := Read(path)
	if err != nil {
		return nil, nil, err
	}
	if err := j.Header.CheckRule(h); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if j.Header != h {
		return nil, nil, fmt.Errorf("journal: %s header %+v does not match campaign %+v", path, j.Header, h)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if j.Truncated {
		if err := f.Truncate(j.ValidBytes); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: trimming partial tail of %s: %w", path, err)
		}
		if j.ValidBytes == 0 {
			// The partial line was the header itself (JSONL only — a
			// binary journal is unidentifiable without a complete header
			// frame): rewrite it so the trimmed file is a well-formed
			// zero-entry journal again.
			line, err := json.Marshal(h)
			if err == nil {
				_, err = f.Write(append(line, '\n'))
			}
			if err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("journal: rewriting header of %s: %w", path, err)
			}
		}
	}
	return j, &Writer{f: f, codec: j.Codec}, nil
}

// Open resumes the journal at path when the file exists — AppendTo,
// returning the recorded entries for replay and keeping the file's own
// codec — and starts a fresh binary one (Create) when it does not, so
// the same call serves a campaign's first run and every re-run. The
// returned Journal is nil for a fresh file. Only a missing file starts
// fresh: one that cannot be read for any other reason is an error.
func Open(path string, h Header) (*Journal, *Writer, error) {
	j, w, err := AppendTo(path, h)
	if errors.Is(err, fs.ErrNotExist) {
		w, err = Create(path, h)
	}
	return j, w, err
}

// Append writes one entry as a single line (JSONL) or frame (binary).
func (w *Writer) Append(e Entry) error {
	var rec []byte
	if w.codec != Binary {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		rec = append(line, '\n')
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.codec == Binary {
		w.frame = AppendEntryFrame(w.frame[:0], e)
		rec = w.frame
	}
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	w.appends++
	return nil
}

// Appends reports how many entries this writer has appended.
func (w *Writer) Appends() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends
}

// Close syncs the journal to stable storage and closes the file. The
// sync is what surfaces write-back failures — an unwritable path
// (quota, ENOSPC, a yanked network mount) discovered after the kernel
// buffered the appends — so a campaign CLI can exit non-zero instead
// of reporting success over a journal that never reached disk.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	serr := w.f.Sync()
	cerr := w.f.Close()
	if serr != nil {
		return fmt.Errorf("journal: sync: %w", serr)
	}
	return cerr
}
