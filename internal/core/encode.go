package core

// Result serialization. A Result encodes to a compact binary payload (via
// the report package's varint codec) so experiment outputs can be memoized
// byte-for-byte by the serve subsystem's cache, shipped over the wire, or
// written to disk, and decode back to an identical Result.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/report"
)

// Result payload layout: one flags byte (bit 0 = table present, bit 1 =
// figure present, bit 2 = headline present), then the fixed 8-byte
// headline float, the length-prefixed table payload, the length-prefixed
// figure payload, and a count-prefixed findings list.
const (
	flagTable    = 0x01
	flagFigure   = 0x02
	flagHeadline = 0x04
)

// Encode serializes the result to a compact binary payload, in a buffer
// of exactly its length.
func (r Result) Encode() []byte {
	tl, fl, n := r.encodedLens()
	return r.appendEncode(make([]byte, 0, n), tl, fl)
}

// AppendEncode appends the result's payload (Encode's bytes) to dst,
// growing it at most once: the table and figure chunks are written in
// place, after their length prefixes, never built apart and copied.
func (r Result) AppendEncode(dst []byte) []byte {
	tl, fl, n := r.encodedLens()
	return r.appendEncode(slices.Grow(dst, n), tl, fl)
}

// encodedLens returns the table and figure chunks' lengths and the whole
// payload's.
func (r Result) encodedLens() (tl, fl, n int) {
	n = 1 + uvarintLen(len(r.Findings))
	if r.Headline != nil {
		n += 8
	}
	if r.Table != nil {
		tl = r.Table.EncodedLen()
		n += uvarintLen(tl) + tl
	}
	if r.Figure != nil {
		fl = r.Figure.EncodedLen()
		n += uvarintLen(fl) + fl
	}
	for _, f := range r.Findings {
		n += uvarintLen(len(f)) + len(f)
	}
	return tl, fl, n
}

func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

func (r Result) appendEncode(dst []byte, tl, fl int) []byte {
	var flags byte
	if r.Table != nil {
		flags |= flagTable
	}
	if r.Figure != nil {
		flags |= flagFigure
	}
	if r.Headline != nil {
		flags |= flagHeadline
	}
	dst = append(dst, flags)
	if r.Headline != nil {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(*r.Headline))
	}
	if r.Table != nil {
		dst = r.Table.AppendEncode(binary.AppendUvarint(dst, uint64(tl)))
	}
	if r.Figure != nil {
		dst = r.Figure.AppendEncode(binary.AppendUvarint(dst, uint64(fl)))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Findings)))
	for _, f := range r.Findings {
		dst = append(binary.AppendUvarint(dst, uint64(len(f))), f...)
	}
	return dst
}

// DecodeResult parses a payload produced by Result.Encode.
func DecodeResult(buf []byte) (Result, error) { return decodeResult(buf, true) }

// DecodeSummary is DecodeResult for callers that use only Headline and
// Findings (the routing front-end's envelope): the table and figure
// chunks are bounds-checked and skipped, not decoded, and stay nil.
func DecodeSummary(buf []byte) (Result, error) { return decodeResult(buf, false) }

func decodeResult(buf []byte, withReport bool) (Result, error) {
	var r Result
	if len(buf) == 0 {
		return r, fmt.Errorf("core: %w: empty result payload", report.ErrCorrupt)
	}
	flags := buf[0]
	off := 1
	if flags&flagHeadline != 0 {
		if len(buf)-off < 8 {
			return r, fmt.Errorf("core: %w: truncated headline", report.ErrCorrupt)
		}
		h := math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		r.Headline = &h
		off += 8
	}
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return 0, fmt.Errorf("core: %w: bad varint", report.ErrCorrupt)
		}
		off += n
		return v, nil
	}
	chunk := func() ([]byte, error) {
		n, err := uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(buf)-off) {
			return nil, fmt.Errorf("core: %w: truncated chunk", report.ErrCorrupt)
		}
		c := buf[off : off+int(n)]
		off += int(n)
		return c, nil
	}
	if flags&flagTable != 0 {
		c, err := chunk()
		if err != nil {
			return r, err
		}
		if withReport {
			if r.Table, err = report.DecodeTable(c); err != nil {
				return r, err
			}
		}
	}
	if flags&flagFigure != 0 {
		c, err := chunk()
		if err != nil {
			return r, err
		}
		if withReport {
			if r.Figure, err = report.DecodeFigure(c); err != nil {
				return r, err
			}
		}
	}
	nf, err := uvarint()
	if err != nil {
		return r, err
	}
	// The findings are the rest of the payload: it is copied into one
	// string, and each finding is sliced from it. The list is sized once; a
	// finding is at least its length byte, which bounds a corrupt count.
	var region string
	if nf > 0 {
		r.Findings = make([]string, 0, min(nf, uint64(len(buf)-off)))
		region = string(buf[off:])
	}
	for base := off; uint64(len(r.Findings)) < nf; {
		c, err := chunk()
		if err != nil {
			return r, err
		}
		r.Findings = append(r.Findings, region[off-base-len(c):off-base])
	}
	// Reject trailing bytes: a memoized payload that decodes but does not
	// consume its whole buffer is corrupt, and silently accepting it
	// would let a truncation-plus-padding round-trip (this matters for
	// findings-only results, whose payloads are almost all findings
	// bytes). The serve cache treats the error like any other corrupt
	// entry: drop and re-execute.
	if off != len(buf) {
		return r, fmt.Errorf("core: %w: %d trailing bytes after result",
			report.ErrCorrupt, len(buf)-off)
	}
	return r, nil
}
