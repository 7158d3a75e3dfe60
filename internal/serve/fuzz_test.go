package serve

// Native Go fuzzing of the identity table's map door against the engine's
// own resolution: IdentOf renders a caller's map into a row key and may
// answer from a row, so for any ID (registered or junk) and any assignment
// of up to three names with arbitrary float bits it must agree with
// resolveKey on key, params and error, and its row's wire run must be the
// assignment's canonical spelling.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/httpapi"
)

func FuzzIdentOfMatchesResolveKey(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 999999, 1e6, -3, 0.9, 1e21,
		math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64} {
		bits := math.Float64bits(v)
		f.Add("E7", uint8(1), "f", bits, "bces", uint64(0), "", uint64(0))
		f.Add("E3", uint8(2), "trials", bits, "fanout", math.Float64bits(12), "", uint64(0))
		f.Add("junk", uint8(3), "x", bits, " f", bits, "f ", bits)
	}
	f.Add("E3", uint8(3), "fanout", math.Float64bits(100), "trials", math.Float64bits(20000),
		"hedge", math.Float64bits(0.95))
	f.Add("E7", uint8(0), "", uint64(0), "", uint64(0), "", uint64(0))
	f.Add("", uint8(1), "f=1", math.Float64bits(2), "", uint64(0), "", uint64(0))
	f.Fuzz(func(t *testing.T, id string, n uint8, n1 string, b1 uint64, n2 string, b2 uint64, n3 string, b3 uint64) {
		p := core.Params{}
		for i, kv := range []struct {
			name string
			bits uint64
		}{{n1, b1}, {n2, b2}, {n3, b3}} {
			if i < int(n%4) {
				p[kv.name] = math.Float64frombits(kv.bits)
			}
		}
		wantKey, wantParams, wantErr := resolveKey(id, p)
		ident := IdentOf(id, p)
		if (wantErr == nil) != (ident.err == nil) {
			t.Fatalf("IdentOf(%q, %v) err %v, resolveKey err %v", id, p, ident.err, wantErr)
		}
		if wantErr != nil {
			if ident.err.Error() != wantErr.Error() {
				t.Fatalf("IdentOf(%q, %v) err %q, resolveKey err %q", id, p, ident.err, wantErr)
			}
			for _, target := range []error{ErrUnknownExperiment, ErrBadParams} {
				if errors.Is(ident.err, target) != errors.Is(wantErr, target) {
					t.Fatalf("IdentOf(%q, %v) err %v: errors.Is(%v) differs from resolveKey's", id, p, ident.err, target)
				}
			}
		} else if ident.Key() != wantKey || !reflect.DeepEqual(ident.Params(), wantParams) {
			t.Fatalf("IdentOf(%q, %v) = %q %v, resolveKey %q %v", id, p, ident.Key(), ident.Params(), wantKey, wantParams)
		}
		run, err := httpapi.ParamsOfRun(ident.Wire())
		if err != nil || !slices.Equal(run, p.Assignments()) {
			t.Fatalf("IdentOf(%q, %v) wire reads %q (%v), want the canonical %q", id, p, run, err, p.Assignments())
		}
		if wantErr != nil {
			return
		}
		back, err := core.ParseParams(run)
		if err != nil || len(back) != len(p) || (len(p) > 0 && !reflect.DeepEqual(back, p)) {
			t.Fatalf("IdentOf(%q, %v) wire parses back to %v (%v)", id, p, back, err)
		}
	})
}

// Snapshot decoding never panics on any bytes, and a corrupt snapshot is
// never fatal: the answer is the entries before the bad byte plus an
// ErrSnapshotCorrupt-wrapped error. That prefix re-encodes and decodes to
// itself, and every truncation of a valid snapshot decodes to a prefix of
// its entries.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(stamped(nil))
	f.Add(stamped([]KV{{Key: "E7", Val: []byte{1, 2, 3}}}, 1700000000000000000))
	f.Add(stamped([]KV{{Key: "", Val: nil}, {Key: "E3?trials=20000", Val: make([]byte, 300)}, {Key: "E1", Val: []byte("x")}},
		-1, math.MaxInt64, math.MinInt64))
	f.Add([]byte{})
	f.Add(append(slices.Clone(snapshotMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Fuzz(func(t *testing.T, buf []byte) {
		kvs, err := DecodeSnapshot(buf)
		if err != nil && !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("error %v does not wrap ErrSnapshotCorrupt", err)
		}
		if again, err := DecodeSnapshot(EncodeSnapshot(kvs)); err != nil || len(again) != len(kvs) || !kvsPrefix(kvs, again) {
			t.Fatalf("prefix of %d entries decodes back to %d (%v)", len(kvs), len(again), err)
		}
		if err != nil || len(buf) > 4096 {
			return
		}
		for n := range len(buf) {
			part, err := DecodeSnapshot(buf[:n])
			if !errors.Is(err, ErrSnapshotCorrupt) || !kvsPrefix(kvs, part) {
				t.Fatalf("truncation to %d of %d bytes: %d entries (%v), want a prefix of %d and ErrSnapshotCorrupt",
					n, len(buf), len(part), err, len(kvs))
			}
		}
	})
}

// kvsPrefix reports whether part is a prefix of kvs, entry for entry.
func kvsPrefix(kvs, part []KV) bool {
	return len(part) <= len(kvs) && slices.EqualFunc(part, kvs[:len(part)], func(a, b KV) bool {
		return a.Key == b.Key && bytes.Equal(a.Val, b.Val)
	})
}

// stamped encodes kvs as a snapshot whose reserved varints hold stamps[i],
// as files that stored each entry's insertion time there do.
func stamped(kvs []KV, stamps ...int64) []byte {
	buf := binary.AppendUvarint(slices.Clone(snapshotMagic), uint64(len(kvs)))
	for i, kv := range kvs {
		buf = binary.AppendUvarint(buf, uint64(len(kv.Key)))
		buf = append(buf, kv.Key...)
		buf = binary.AppendUvarint(buf, uint64(len(kv.Val)))
		buf = append(buf, kv.Val...)
		buf = binary.AppendVarint(buf, stamps[i])
	}
	return buf
}
