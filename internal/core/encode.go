package core

// Result serialization. A Result encodes to a compact binary payload (via
// the report package's varint codec) so experiment outputs can be memoized
// byte-for-byte by the serve subsystem's cache, shipped over the wire, or
// written to disk, and decode back to an identical Result.

import (
	"encoding/binary"
	"fmt"
	"math"

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

// Encode serializes the result to a compact binary payload.
func (r Result) Encode() []byte {
	var flags byte
	var tbl, fig []byte
	if r.Table != nil {
		flags |= flagTable
		tbl = r.Table.Encode()
	}
	if r.Figure != nil {
		flags |= flagFigure
		fig = r.Figure.Encode()
	}
	if r.Headline != nil {
		flags |= flagHeadline
	}
	// Sized once: flags, headline, and a varint of at most 10 bytes before
	// each chunk, the findings count and each finding.
	size := 1 + 8 + len(tbl) + len(fig) + binary.MaxVarintLen64*(3+len(r.Findings))
	for _, f := range r.Findings {
		size += len(f)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, flags)
	if r.Headline != nil {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(*r.Headline))
		buf = append(buf, w[:]...)
	}
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	if r.Table != nil {
		putUvarint(uint64(len(tbl)))
		buf = append(buf, tbl...)
	}
	if r.Figure != nil {
		putUvarint(uint64(len(fig)))
		buf = append(buf, fig...)
	}
	putUvarint(uint64(len(r.Findings)))
	for _, f := range r.Findings {
		putUvarint(uint64(len(f)))
		buf = append(buf, f...)
	}
	return buf
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
	if nf > 0 { // sized once; a finding is at least its length byte, which bounds a corrupt count
		r.Findings = make([]string, 0, min(nf, uint64(len(buf)-off)))
	}
	for i := uint64(0); i < nf; i++ {
		c, err := chunk()
		if err != nil {
			return r, err
		}
		r.Findings = append(r.Findings, string(c))
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
