package serve

// Tier-2 cache: a disk snapshot of the tier-1 in-memory cache, written
// with the same varint framing the result codec uses. An engine
// configured with a SnapshotPath loads the snapshot on boot (warm start:
// previously computed results serve as cache hits across restarts) and
// rewrites it on SaveSnapshot and Reset, so the disk tier can never
// resurrect an entry the in-memory tier dropped on purpose. A corrupt or
// truncated snapshot is not fatal: the readable prefix loads, the rest is
// skipped, and the next save rewrites the file whole. Each record ends in
// a reserved varint, written 0 and ignored on read: it once held the
// entry's insertion time, and keeping it keeps the format byte-compatible
// until the next format version drops it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// snapshotMagic heads every snapshot file; the trailing byte is the
// format version.
var snapshotMagic = []byte("a21snap\x01")

// ErrSnapshotCorrupt marks a snapshot whose payload could not be fully
// parsed. LoadSnapshot still returns whatever prefix decoded cleanly.
var ErrSnapshotCorrupt = errors.New("serve: corrupt snapshot")

// EncodeSnapshot serializes cache entries: magic, uvarint count, then
// per entry a length-prefixed key, a length-prefixed payload, and the
// reserved varint (0).
func EncodeSnapshot(kvs []KV) []byte {
	buf := append([]byte(nil), snapshotMagic...)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	put(uint64(len(kvs)))
	for _, kv := range kvs {
		put(uint64(len(kv.Key)))
		buf = append(buf, kv.Key...)
		put(uint64(len(kv.Val)))
		buf = append(buf, kv.Val...)
		buf = append(buf, 0) // the reserved varint
	}
	return buf
}

// DecodeSnapshot parses a snapshot payload. On corruption it returns the
// entries decoded before the bad byte together with an
// ErrSnapshotCorrupt-wrapped error — callers load the prefix and move on.
func DecodeSnapshot(buf []byte) ([]KV, error) {
	if len(buf) < len(snapshotMagic) || string(buf[:len(snapshotMagic)]) != string(snapshotMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	off := len(snapshotMagic)
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	chunk := func() ([]byte, bool) {
		n, ok := uvarint()
		if !ok || n > uint64(len(buf)-off) {
			return nil, false
		}
		c := buf[off : off+int(n)]
		off += int(n)
		return c, true
	}
	count, ok := uvarint()
	if !ok {
		return nil, fmt.Errorf("%w: bad entry count", ErrSnapshotCorrupt)
	}
	var kvs []KV
	for i := uint64(0); i < count; i++ {
		key, ok := chunk()
		if !ok {
			return kvs, fmt.Errorf("%w: truncated at entry %d of %d", ErrSnapshotCorrupt, i, count)
		}
		val, ok := chunk()
		if !ok {
			return kvs, fmt.Errorf("%w: truncated at entry %d of %d", ErrSnapshotCorrupt, i, count)
		}
		// The reserved varint: parsed so a cut inside it is still seen.
		_, n := binary.Varint(buf[off:])
		if n <= 0 {
			return kvs, fmt.Errorf("%w: truncated at entry %d of %d", ErrSnapshotCorrupt, i, count)
		}
		off += n
		kvs = append(kvs, KV{Key: string(key), Val: append([]byte(nil), val...)})
	}
	if off != len(buf) {
		return kvs, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(buf)-off)
	}
	return kvs, nil
}

// WriteSnapshotFile writes entries atomically (temp file + rename), so a
// crash mid-write leaves the previous snapshot intact rather than a torn
// one. The temp file is synced before the rename and the directory after
// it, so a crash after the rename cannot leave an empty file in place.
func WriteSnapshotFile(path string, kvs []KV) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(EncodeSnapshot(kvs))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	return nil
}

// syncDir makes a rename inside dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadSnapshotFile loads a snapshot file. A missing file is (nil, nil) —
// a cold start, not an error. A corrupt file returns the loadable prefix
// plus an ErrSnapshotCorrupt-wrapped error.
func ReadSnapshotFile(path string) ([]KV, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot: %w", err)
	}
	return DecodeSnapshot(raw)
}
