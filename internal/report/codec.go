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

type encoder struct {
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.buf = append(e.buf, e.tmp[:n]...)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// uvarintLen and strLen are the bytes uvarint(v) and str(s) append, so
// Encode can size its buffer once.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func (e *encoder) float(f float64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], math.Float64bits(f))
	e.buf = append(e.buf, w[:]...)
}

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

// Encode serializes the table.
func (t *Table) Encode() []byte {
	size := 1 + strLen(t.Title) + strLen(t.Note) + uvarintLen(uint64(len(t.Headers))) + uvarintLen(uint64(len(t.Rows)))
	for _, h := range t.Headers {
		size += strLen(h)
	}
	for _, r := range t.Rows {
		size += uvarintLen(uint64(len(r)))
		for _, c := range r {
			size += strLen(c)
		}
	}
	e := &encoder{buf: make([]byte, 0, size)}
	e.buf = append(e.buf, kindTable)
	e.str(t.Title)
	e.str(t.Note)
	e.uvarint(uint64(len(t.Headers)))
	for _, h := range t.Headers {
		e.str(h)
	}
	e.uvarint(uint64(len(t.Rows)))
	for _, r := range t.Rows {
		e.uvarint(uint64(len(r)))
		for _, c := range r {
			e.str(c)
		}
	}
	return e.buf
}

// DecodeTable parses a payload produced by Table.Encode.
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

// Encode serializes the figure.
func (f *Figure) Encode() []byte {
	size := 1 + strLen(f.Title) + strLen(f.XLabel) + strLen(f.YLabel) + strLen(f.Note) + uvarintLen(uint64(len(f.Series)))
	for _, s := range f.Series {
		size += strLen(s.Name) + uvarintLen(uint64(len(s.Points))) + 16*len(s.Points)
	}
	e := &encoder{buf: make([]byte, 0, size)}
	e.buf = append(e.buf, kindFigure)
	e.str(f.Title)
	e.str(f.XLabel)
	e.str(f.YLabel)
	e.str(f.Note)
	e.uvarint(uint64(len(f.Series)))
	for _, s := range f.Series {
		e.str(s.Name)
		e.uvarint(uint64(len(s.Points)))
		for _, p := range s.Points {
			e.float(p.X)
			e.float(p.Y)
		}
	}
	return e.buf
}

// DecodeFigure parses a payload produced by Figure.Encode.
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
