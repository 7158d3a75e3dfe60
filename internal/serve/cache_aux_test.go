package serve

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// entryWords reads key's payload, as far as its header's valLen word says,
// and its state word, without counting as an access.
func entryWords(t *testing.T, c *Cache, key string) (val []byte, state uint32) {
	t.Helper()
	h := fnv1a(key)
	s := &c.shards[h&c.mask]
	s.lock()
	defer s.unlock()
	slot := s.find(h, key)
	if slot < 0 {
		t.Fatalf("entry %q missing", key)
	}
	seg, off := s.at(s.idxRef[slot])
	b := seg.buf[off:]
	lo := entryHdrLen + int(binary.LittleEndian.Uint32(b[offKeyLen:]))
	vl := int(binary.LittleEndian.Uint32(b[offValLen:]))
	return append([]byte(nil), b[lo:lo+vl]...), binary.LittleEndian.Uint32(b[offState:])
}

// mustAttach Gets key and attaches aux to exactly those bytes.
func mustAttach(t *testing.T, c *Cache, key, aux string) {
	t.Helper()
	val, ok := c.Get(key)
	if !ok || !c.AttachAux(key, val, []byte(aux)) {
		t.Fatalf("attach %q to %q failed (present=%v)", aux, key, ok)
	}
}

func wantAux(t *testing.T, c *Cache, key, val, aux string) {
	t.Helper()
	v, a, ok := c.GetWithAux(key)
	if !ok || string(v) != val || string(a) != aux {
		t.Fatalf("GetWithAux(%q) = %q, %q, %v; want %q, %q", key, v, a, ok, val, aux)
	}
}

// Attaching re-appends the entry: one lookup then returns payload and aux,
// the entry keeps its CLOCK bit and payload, the bytes handed out
// before stay intact, and the cache's hit/miss books do not move.
func TestAuxAttachPreservesEntry(t *testing.T) {
	c := NewCache(1, 0)
	c.Set("k", []byte("payload"))
	var old []byte
	for i := 0; i < 3; i++ {
		old, _ = c.Get("k")
	}
	before := c.Stats()
	if !c.AttachAux("k", old, []byte("tail-bytes")) {
		t.Fatal("AttachAux on a live entry reported false")
	}
	if after := c.Stats(); after.Hits != before.Hits || after.Misses != before.Misses || after.Entries != 1 {
		t.Fatalf("attach moved the books: %+v -> %+v", before, after)
	}
	val, state := entryWords(t, c, "k")
	if string(val) != "payload" || state != stateLive|stateAccessed {
		t.Fatalf("after attach: val=%q state=%b, want payload, live|accessed", val, state)
	}
	wantAux(t, c, "k", "payload", "tail-bytes")
	if v, ok := c.Get("k"); !ok || string(v) != "payload" {
		t.Fatalf("Get sees %q, want the payload only", v)
	}
	if string(old) != "payload" {
		t.Fatalf("bytes handed out before the attach changed: %q", old)
	}

	// No-ops: an entry that already has aux, stale payload bytes, bytes
	// that are not the slab's, a missing key, an empty aux.
	cur, _ := c.Get("k")
	for name, try := range map[string]func() bool{
		"already attached": func() bool { return c.AttachAux("k", cur, []byte("second")) },
		"stale payload":    func() bool { return c.AttachAux("k", old, []byte("second")) },
		"foreign bytes":    func() bool { return c.AttachAux("k", []byte("payload"), []byte("second")) },
		"missing key":      func() bool { return c.AttachAux("absent", cur, []byte("second")) },
		"empty aux":        func() bool { return c.AttachAux("k", cur, nil) },
	} {
		if try() {
			t.Errorf("AttachAux (%s) reported true", name)
		}
	}
	wantAux(t, c, "k", "payload", "tail-bytes")
	c.Set("fresh", []byte("p2"))
	if v, _ := c.Get("fresh"); c.AttachAux("fresh", []byte("p2"), []byte("x")) || !c.AttachAux("fresh", v, []byte("x")) {
		t.Fatal("only the slab's own bytes may identify the entry")
	}
}

// Compaction (unbounded) and an LRU second chance (bounded) both move the
// whole entry, aux included, header and payload with it.
func TestAuxSurvivesReclamation(t *testing.T) {
	filler := make([]byte, 1024)
	t.Run("compaction", func(t *testing.T) {
		c := NewCache(1, 0)
		c.Set("keep", []byte("payload"))
		mustAttach(t, c, "keep", "tail")
		for i := 0; i < 3000; i++ {
			c.Set(fmt.Sprintf("churn-%05d", i), filler)
			if i >= 8 {
				c.Delete(fmt.Sprintf("churn-%05d", i-8))
			}
		}
		if st := c.Stats(); st.Bytes > 12*segmentSize {
			t.Fatalf("slab bytes %d: compaction did not run", st.Bytes)
		}
		if val, _ := entryWords(t, c, "keep"); string(val) != "payload" {
			t.Fatalf("after compaction: val=%q, want payload", val)
		}
		wantAux(t, c, "keep", "payload", "tail")
	})
	t.Run("lru-second-chance", func(t *testing.T) {
		c := NewCacheSized(1, 0, 2*segmentSize, EvictLRU)
		c.Set("hot", []byte("payload"))
		mustAttach(t, c, "hot", "tail")
		for i := 0; i < 5000; i++ {
			c.Set(fmt.Sprintf("cold-%05d", i), filler)
			wantAux(t, c, "hot", "payload", "tail")
		}
		if c.Stats().Evicted == 0 {
			t.Fatal("no eviction sweep ran")
		}
		val, state := entryWords(t, c, "hot")
		if string(val) != "payload" || state&stateAccessed == 0 {
			t.Fatalf("after sweeps: val=%q state=%b, want payload, accessed", val, state)
		}
		// Attaching into a full bounded shard reclaims first; the entry is
		// then found where the sweep left it, or not attached at all.
		v, _ := c.Get("cold-04999")
		if c.AttachAux("cold-04999", v, filler) {
			wantAux(t, c, "cold-04999", string(filler), string(filler))
		}
		wantAux(t, c, "hot", "payload", "tail")
	})
}

// Whatever replaces or removes the payload drops the aux with it, and the
// slab still walks correctly afterwards (an in-place Set folds the aux
// bytes into the value capacity rather than leaving a hole).
func TestAuxDroppedWithPayload(t *testing.T) {
	c := NewCache(1, 0)
	gone := func(key, wantVal string) {
		t.Helper()
		v, a, ok := c.GetWithAux(key)
		if a != nil || ok != (wantVal != "") || string(v) != wantVal {
			t.Fatalf("GetWithAux(%q) = %q, %q, %v; want %q and no aux", key, v, a, ok, wantVal)
		}
	}
	for _, k := range []string{"inplace", "grown", "deleted", "cleared"} {
		c.Set(k, []byte("payload-"+k))
		mustAttach(t, c, k, "tail-"+k)
	}
	c.Set("inplace", []byte("short"))
	gone("inplace", "short")
	c.Set("grown", make([]byte, 100))
	gone("grown", string(make([]byte, 100)))
	c.Delete("deleted")
	gone("deleted", "")
	// A fresh payload under a killed key starts without aux.
	c.Set("deleted", []byte("again"))
	gone("deleted", "again")

	// Churn until compaction has walked the segment holding the folded
	// in-place entry and the dead ones.
	filler := make([]byte, 1024)
	for i := 0; i < 300; i++ {
		c.Set(fmt.Sprintf("churn-%03d", i), filler)
		c.Delete(fmt.Sprintf("churn-%03d", i))
	}
	gone("inplace", "short")
	wantAux(t, c, "cleared", "payload-cleared", "tail-cleared")
	c.Clear()
	gone("cleared", "")
}

// Dump — and so every snapshot — carries payloads only.
func TestAuxNotDumped(t *testing.T) {
	c := NewCache(2, 0)
	c.Set("a", []byte("payload-a"))
	c.Set("b", []byte("payload-b"))
	mustAttach(t, c, "a", "tail-a")
	d := c.Dump()
	if len(d) != 2 || string(d[0].Val) != "payload-a" || string(d[1].Val) != "payload-b" {
		t.Fatalf("Dump = %+v, want the two payloads", d)
	}
}
