package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"unicode/utf8"
)

// Codec names a journal's on-disk encoding. Every journal is created
// Binary, the compact frame format; JSONL, the original line format,
// is still read and, by AppendTo, appended to. DecodeBytes sniffs the
// binary magic, and the two are unambiguous (JSONL starts with '{').
type Codec string

const (
	// JSONL encodes one JSON object per newline-terminated line.
	JSONL Codec = "jsonl"
	// Binary encodes length-prefixed frames with a CRC32 trailer.
	Binary Codec = "binary"
)

// The binary layout:
//
//	magic   8 bytes "govpbj1\n"
//	frame*  u32le payloadLen | payload | u32le crc32-IEEE(payload)
//
// The first frame's payload is 'H' followed by the JSON-encoded Header
// (headers are one per file, so compactness buys nothing and the JSON
// keeps them greppable with `strings`); every later frame is 'E'
// followed by the compact entry encoding:
//
//	uvarint index
//	uvarint len(id)     | id bytes
//	uvarint len(class)  | class bytes
//	uvarint len(detail) | detail bytes
//	flags byte          (bit 0: panicked, bit 1: signature follows)
//	uvarint signature   (present iff flags bit 1; always non-zero)
//
// The CRC failing on a frame that runs to end-of-file is the footprint
// of an append cut short by a crash: the frame is dropped and the
// journal reports Truncated, exactly like JSONL's unterminated final
// line. A CRC failure (or oversized length) anywhere else is
// corruption — a hard error, never silently merged.

// binaryMagic identifies a binary journal. The trailing newline keeps
// `head -c8` output clean; the format marker inside the header frame
// still carries the real version.
var binaryMagic = []byte("govpbj1\n")

// maxFrameLen bounds a single frame's payload. Entries are tiny and
// the header is small; anything past this is a corrupt length word,
// not a real frame.
const maxFrameLen = 1 << 20

const (
	frameHeader = 'H'
	frameEntry  = 'E'
)

var crcIEEE = crc32.IEEETable

// appendFrame appends one length+payload+CRC frame to dst.
func appendFrame(dst, payload []byte) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
	dst = append(dst, n[:]...)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(n[:], crc32.Checksum(payload, crcIEEE))
	return append(dst, n[:]...)
}

// AppendEntryFrame appends e's whole frame to dst — the bytes of
// appendFrame(dst, appendEntryPayload(nil, e)) — encoding the payload in
// place, so a caller that reuses dst appends without allocating. It is
// what a binary journal holds per entry, and what a fabric worker puts
// on the wire.
func AppendEntryFrame(dst []byte, e Entry) []byte {
	at := len(dst)
	dst = appendEntryPayload(append(dst, 0, 0, 0, 0), e)
	payload := dst[at+4:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcIEEE))
}

// maxEntryFrameLen bounds the length of e's frame: the length and CRC
// words, the tag and flags bytes, at most five uvarints and the strings.
func maxEntryFrameLen(e Entry) int {
	return 4 + 1 + 5*binary.MaxVarintLen64 + len(e.ID) + len(e.Class) + len(e.Detail) + 1 + 4
}

// appendUvarint / appendString are the entry payload primitives.
func appendUvarint(dst []byte, v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	return append(dst, b[:binary.PutUvarint(b[:], v)]...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendEntryPayload encodes e as an 'E' frame payload.
func appendEntryPayload(dst []byte, e Entry) []byte {
	dst = append(dst, frameEntry)
	dst = appendUvarint(dst, uint64(e.Index))
	dst = appendString(dst, e.ID)
	dst = appendString(dst, e.Class)
	dst = appendString(dst, e.Detail)
	var flags byte
	if e.Panicked {
		flags |= 1
	}
	if e.Sig != 0 {
		flags |= 2
	}
	dst = append(dst, flags)
	if e.Sig != 0 {
		dst = appendUvarint(dst, e.Sig)
	}
	return dst
}

// binReader walks an entry payload.
type binReader struct {
	p []byte
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		return 0, fmt.Errorf("journal: bad varint in entry frame")
	}
	r.p = r.p[n:]
	return v, nil
}

func (r *binReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.p)) {
		return "", fmt.Errorf("journal: string length %d exceeds frame", n)
	}
	s := string(r.p[:n])
	r.p = r.p[n:]
	// JSONL cannot represent invalid UTF-8, so the binary codec refuses
	// it too: the two codecs are one format with two spellings, and a
	// journal must decode identically through either.
	if !utf8.ValidString(s) {
		return "", fmt.Errorf("journal: entry string is not valid UTF-8")
	}
	return s, nil
}

// decodeEntryPayload parses an 'E' frame payload (kind byte already
// consumed).
func decodeEntryPayload(p []byte) (Entry, error) {
	r := &binReader{p: p}
	var e Entry
	idx, err := r.uvarint()
	if err != nil {
		return e, err
	}
	if idx > 1<<31 {
		return e, fmt.Errorf("journal: entry index %d overflows", idx)
	}
	e.Index = int(idx)
	if e.ID, err = r.str(); err != nil {
		return e, err
	}
	if e.Class, err = r.str(); err != nil {
		return e, err
	}
	if e.Detail, err = r.str(); err != nil {
		return e, err
	}
	if len(r.p) < 1 {
		return e, fmt.Errorf("journal: entry frame missing flags byte")
	}
	flags := r.p[0]
	r.p = r.p[1:]
	if flags > 3 {
		return e, fmt.Errorf("journal: unknown entry flags %#x", flags)
	}
	e.Panicked = flags&1 != 0
	if flags&2 != 0 {
		sig, err := r.uvarint()
		if err != nil {
			return e, err
		}
		if sig == 0 {
			// A signature flag over a zero value would re-encode without
			// the flag — refuse the non-canonical spelling so accepted
			// frames always round-trip bit-exact.
			return e, fmt.Errorf("journal: entry signature flag with zero signature")
		}
		e.Sig = sig
	}
	if len(r.p) != 0 {
		return e, fmt.Errorf("journal: entry frame has %d trailing bytes", len(r.p))
	}
	return e, nil
}

// DecodeEntryFrames appends to dst the entries of data, a run of
// AppendEntryFrame frames and nothing else. Unlike a journal file there
// is no tail to recover: a frame that is cut short, fails its CRC, is
// not an entry or does not parse is an error.
func DecodeEntryFrames(dst []Entry, data []byte) ([]Entry, error) {
	for len(data) > 0 {
		payload, frameLen, complete, err := nextFrame(data)
		if err != nil {
			return dst, err
		}
		if !complete || len(payload) == 0 || payload[0] != frameEntry {
			return dst, fmt.Errorf("journal: torn, CRC-failing or non-entry frame after %d entries", len(dst))
		}
		e, err := decodeEntryPayload(payload[1:])
		if err != nil {
			return dst, err
		}
		dst = append(dst, e)
		data = data[frameLen:]
	}
	return dst, nil
}

// encodeBinaryHeader renders the magic plus the header frame.
func encodeBinaryHeader(h Header) ([]byte, error) {
	hj, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	out := append([]byte{}, binaryMagic...)
	return appendFrame(out, append([]byte{frameHeader}, hj...)), nil
}

// decodeBinary parses a binary journal (data starts with binaryMagic).
// An incomplete or CRC-failing frame at end-of-file is the truncation
// footprint: everything before it is kept and Truncated is set. The
// same damage anywhere else — more frames follow — is corruption and
// refuses to decode, as does any malformed frame content.
func decodeBinary(data []byte) (*Journal, error) {
	j := &Journal{Codec: Binary}
	rest := data[len(binaryMagic):]
	off := int64(len(binaryMagic))
	headerDone := false
	for len(rest) > 0 {
		payload, frameLen, complete, err := nextFrame(rest)
		if !complete {
			// The frame does not fit in the remaining bytes (or its CRC
			// fails right at end-of-file): an append cut short by a crash.
			// Without a decoded header the file is unidentifiable and
			// refused; with one it is resumable after trimming.
			if err != nil {
				return nil, err
			}
			if !headerDone {
				return nil, fmt.Errorf("journal: truncated before a complete header")
			}
			j.Truncated = true
			break
		}
		if err != nil {
			return nil, err
		}
		rest = rest[frameLen:]
		if len(payload) == 0 {
			return nil, fmt.Errorf("journal: empty frame after %d bytes", off)
		}
		kind, body := payload[0], payload[1:]
		if !headerDone {
			if kind != frameHeader {
				return nil, fmt.Errorf("journal: first frame kind %q, want header", kind)
			}
			var h Header
			if err := json.Unmarshal(body, &h); err != nil {
				return nil, fmt.Errorf("journal: bad header frame: %w", err)
			}
			if err := h.Validate(); err != nil {
				return nil, err
			}
			j.Header = h
			headerDone = true
			off += frameLen
			continue
		}
		if kind != frameEntry {
			return nil, fmt.Errorf("journal: unknown frame kind %q after %d bytes", kind, off)
		}
		e, err := decodeEntryPayload(body)
		if err != nil {
			return nil, err
		}
		if err := e.validate(j.Header); err != nil {
			return nil, err
		}
		j.Entries = append(j.Entries, e)
		off += frameLen
	}
	if !headerDone {
		return nil, fmt.Errorf("journal: truncated before a complete header")
	}
	j.ValidBytes = off
	return j, nil
}

// Verify checks the journal file at path whole without decoding its
// entries and returns its header and how many entries it holds. A
// binary journal must end on a frame boundary — a torn or CRC-failing
// final frame is an error here, not a truncation — with every frame's
// CRC holding and every frame after the header an entry; a JSONL one
// is decoded, and refused when truncated. It is how a writer that kept
// what it wrote in memory checks that the file on disk still holds it.
func Verify(path string) (Header, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Header{}, 0, err
	}
	h, n, err := verifyBytes(data)
	if err != nil {
		return Header{}, 0, fmt.Errorf("%s: %w", path, err)
	}
	return h, n, nil
}

func verifyBytes(data []byte) (Header, int, error) {
	var h Header
	if SniffCodec(data) != Binary {
		j, err := DecodeBytes(data)
		switch {
		case err != nil:
			return h, 0, err
		case j.Truncated:
			return h, 0, fmt.Errorf("journal: torn final line after %d entries", len(j.Entries))
		}
		return j.Header, len(j.Entries), nil
	}
	n := -1 // entry frames; -1 until the header frame
	for rest := data[len(binaryMagic):]; len(rest) > 0; n++ {
		payload, frameLen, complete, err := nextFrame(rest)
		switch {
		case err != nil:
			return h, 0, err
		case !complete:
			return h, 0, fmt.Errorf("journal: torn or CRC-failing final frame after %d entries", max(n, 0))
		case n < 0:
			if len(payload) == 0 || payload[0] != frameHeader {
				return h, 0, fmt.Errorf("journal: first frame is not a header")
			}
			if err := json.Unmarshal(payload[1:], &h); err != nil {
				return h, 0, fmt.Errorf("journal: bad header frame: %w", err)
			}
		case len(payload) == 0 || payload[0] != frameEntry:
			return h, 0, fmt.Errorf("journal: frame after %d entries is not an entry", n)
		}
		rest = rest[frameLen:]
	}
	if n < 0 {
		return h, 0, fmt.Errorf("journal: truncated before a complete header")
	}
	return h, n, nil
}

// nextFrame inspects the frame at the start of rest. complete reports
// whether a whole, CRC-valid frame is present; when it is, payload
// aliases rest and frameLen is the total encoded size. err is non-nil
// only for damage that cannot be truncation: an oversized length word,
// or a CRC failure with more data following the frame.
func nextFrame(rest []byte) (payload []byte, frameLen int64, complete bool, err error) {
	if len(rest) < 4 {
		return nil, 0, false, nil
	}
	n := binary.LittleEndian.Uint32(rest)
	if n > maxFrameLen {
		return nil, 0, false, fmt.Errorf("journal: frame length %d exceeds %d — corrupt length word", n, maxFrameLen)
	}
	total := int64(4) + int64(n) + 4
	if int64(len(rest)) < total {
		return nil, 0, false, nil
	}
	payload = rest[4 : 4+n]
	want := binary.LittleEndian.Uint32(rest[4+n:])
	if crc32.Checksum(payload, crcIEEE) != want {
		if int64(len(rest)) == total {
			// Damaged final frame: torn write, recover as truncation.
			return nil, 0, false, nil
		}
		return nil, 0, false, fmt.Errorf("journal: frame CRC mismatch with %d bytes following — corruption, not truncation", int64(len(rest))-total)
	}
	return payload, total, true, nil
}

// SniffCodec reports which codec encoded data (defaulting to JSONL for
// anything without the binary magic — the decoder will report precise
// errors for garbage).
func SniffCodec(data []byte) Codec {
	if bytes.HasPrefix(data, binaryMagic) {
		return Binary
	}
	return JSONL
}
