package report

// Binary codec for tables and figures so experiment outputs can live in
// byte-oriented stores (the serve subsystem's memoizing cache, files, the
// wire). The format is a compact varint encoding: strings are
// length-prefixed, floats are IEEE-754 bits written as fixed 8-byte
// little-endian words, and every collection is count-prefixed. There is no
// self-describing framing beyond a one-byte kind tag — both ends are this
// package.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Codec kind tags (first byte of every encoded payload).
const (
	kindTable  = 0x01
	kindFigure = 0x02
)

// ErrCorrupt reports a payload that cannot be decoded.
var ErrCorrupt = errors.New("report: corrupt payload")

// appendStr, uvarintLen and strLen are the codec's string and count
// words: strLen(s) is the bytes appendStr(dst, s) appends, so a payload's
// length is known before a byte of it is written.
func appendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	d.off += n
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)-d.off) {
		return "", ErrCorrupt
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) float() (float64, error) {
	if len(d.buf)-d.off < 8 {
		return 0, ErrCorrupt
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v, nil
}

// EncodedLen is the length of the table's payload: what AppendEncode
// appends.
func (t *Table) EncodedLen() int {
	n := 1 + strLen(t.Title) + strLen(t.Note) + uvarintLen(uint64(len(t.Headers))) + uvarintLen(uint64(len(t.Rows)))
	for _, h := range t.Headers {
		n += strLen(h)
	}
	for _, r := range t.Rows {
		n += uvarintLen(uint64(len(r)))
		for _, c := range r {
			n += strLen(c)
		}
	}
	return n
}

// AppendEncode appends the table's payload to dst.
func (t *Table) AppendEncode(dst []byte) []byte {
	dst = appendStr(append(dst, kindTable), t.Title)
	dst = appendStr(dst, t.Note)
	dst = binary.AppendUvarint(dst, uint64(len(t.Headers)))
	for _, h := range t.Headers {
		dst = appendStr(dst, h)
	}
	dst = binary.AppendUvarint(dst, uint64(len(t.Rows)))
	for _, r := range t.Rows {
		dst = binary.AppendUvarint(dst, uint64(len(r)))
		for _, c := range r {
			dst = appendStr(dst, c)
		}
	}
	return dst
}

// DecodeTable parses a payload produced by Table.AppendEncode.
func DecodeTable(buf []byte) (*Table, error) {
	if len(buf) == 0 || buf[0] != kindTable {
		return nil, fmt.Errorf("%w: not a table payload", ErrCorrupt)
	}
	d := &decoder{buf: buf, off: 1}
	t := &Table{}
	var err error
	if t.Title, err = d.str(); err != nil {
		return nil, err
	}
	if t.Note, err = d.str(); err != nil {
		return nil, err
	}
	nh, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nh; i++ {
		h, err := d.str()
		if err != nil {
			return nil, err
		}
		t.Headers = append(t.Headers, h)
	}
	nr, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nr; i++ {
		nc, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		// Never pre-allocate on the declared count alone: every cell costs
		// at least one buffer byte, so a count past the remaining bytes is
		// corrupt and would otherwise turn a ~20-byte payload into a
		// multi-GB make() (found by FuzzDecodeResult).
		capHint := nc
		if rem := uint64(len(d.buf) - d.off); capHint > rem {
			capHint = rem
		}
		row := make([]string, 0, capHint)
		for j := uint64(0); j < nc; j++ {
			c, err := d.str()
			if err != nil {
				return nil, err
			}
			row = append(row, c)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// EncodedLen is the length of the figure's payload: what AppendEncode
// appends.
func (f *Figure) EncodedLen() int {
	n := 1 + strLen(f.Title) + strLen(f.XLabel) + strLen(f.YLabel) + strLen(f.Note) + uvarintLen(uint64(len(f.Series)))
	for _, s := range f.Series {
		n += strLen(s.Name) + uvarintLen(uint64(len(s.Points))) + 16*len(s.Points)
	}
	return n
}

// AppendEncode appends the figure's payload to dst.
func (f *Figure) AppendEncode(dst []byte) []byte {
	dst = appendStr(append(dst, kindFigure), f.Title)
	dst = appendStr(dst, f.XLabel)
	dst = appendStr(dst, f.YLabel)
	dst = appendStr(dst, f.Note)
	dst = binary.AppendUvarint(dst, uint64(len(f.Series)))
	for _, s := range f.Series {
		dst = binary.AppendUvarint(appendStr(dst, s.Name), uint64(len(s.Points)))
		for _, p := range s.Points {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.X))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Y))
		}
	}
	return dst
}

// DecodeFigure parses a payload produced by Figure.AppendEncode.
func DecodeFigure(buf []byte) (*Figure, error) {
	if len(buf) == 0 || buf[0] != kindFigure {
		return nil, fmt.Errorf("%w: not a figure payload", ErrCorrupt)
	}
	d := &decoder{buf: buf, off: 1}
	f := &Figure{}
	var err error
	if f.Title, err = d.str(); err != nil {
		return nil, err
	}
	if f.XLabel, err = d.str(); err != nil {
		return nil, err
	}
	if f.YLabel, err = d.str(); err != nil {
		return nil, err
	}
	if f.Note, err = d.str(); err != nil {
		return nil, err
	}
	ns, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < ns; i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		s := f.AddSeries(name)
		np, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < np; j++ {
			x, err := d.float()
			if err != nil {
				return nil, err
			}
			y, err := d.float()
			if err != nil {
				return nil, err
			}
			s.Add(x, y)
		}
	}
	return f, nil
}
