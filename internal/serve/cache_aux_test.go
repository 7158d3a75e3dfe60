package serve

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// entryWords reads key's header words without counting as an access.
func entryWords(t *testing.T, c *Cache, key string) (added int64, state uint32) {
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
	return int64(binary.LittleEndian.Uint64(b[offAdded:])), binary.LittleEndian.Uint32(b[offState:])
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
// the entry keeps its CLOCK bit and stamp, the bytes handed out
// before stay intact, and the cache's hit/miss books do not move.
func TestAuxAttachPreservesEntry(t *testing.T) {
	c := NewCache(1, time.Hour)
	c.now = func() time.Time { return time.Unix(0, 20000) }
	c.SetStamped("k", []byte("payload"), 12345)
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
	added, state := entryWords(t, c, "k")
	if added != 12345 || state != stateLive|stateAccessed {
		t.Fatalf("after attach: added=%d state=%b, want 12345, live|accessed", added, state)
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
// whole entry, aux included, and keep its stamp.
func TestAuxSurvivesReclamation(t *testing.T) {
	filler := make([]byte, 1024)
	t.Run("compaction", func(t *testing.T) {
		c := NewCache(1, 0)
		c.SetStamped("keep", []byte("payload"), 777)
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
		if added, _ := entryWords(t, c, "keep"); added != 777 {
			t.Fatalf("after compaction: added=%d, want 777", added)
		}
		wantAux(t, c, "keep", "payload", "tail")
	})
	t.Run("lru-second-chance", func(t *testing.T) {
		c := NewCacheSized(1, 0, 2*segmentSize, EvictLRU)
		c.SetStamped("hot", []byte("payload"), 777)
		mustAttach(t, c, "hot", "tail")
		for i := 0; i < 5000; i++ {
			c.Set(fmt.Sprintf("cold-%05d", i), filler)
			wantAux(t, c, "hot", "payload", "tail")
		}
		if c.Stats().Evicted == 0 {
			t.Fatal("no eviction sweep ran")
		}
		added, state := entryWords(t, c, "hot")
		if added != 777 || state&stateAccessed == 0 {
			t.Fatalf("after sweeps: added=%d state=%b, want 777, accessed", added, state)
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
	now := time.Unix(1000, 0)
	c := NewCache(1, time.Minute)
	c.now = func() time.Time { return now }
	gone := func(key, wantVal string) {
		t.Helper()
		v, a, ok := c.GetWithAux(key)
		if a != nil || ok != (wantVal != "") || string(v) != wantVal {
			t.Fatalf("GetWithAux(%q) = %q, %q, %v; want %q and no aux", key, v, a, ok, wantVal)
		}
	}
	for _, k := range []string{"inplace", "grown", "deleted", "E9?n=1", "expired", "cleared"} {
		c.Set(k, []byte("payload-"+k))
		mustAttach(t, c, k, "tail-"+k)
	}
	c.Set("inplace", []byte("short"))
	gone("inplace", "short")
	c.Set("grown", make([]byte, 100))
	gone("grown", string(make([]byte, 100)))
	c.Delete("deleted")
	gone("deleted", "")
	if n := c.DeletePrefix("E9?"); n != 1 {
		t.Fatalf("DeletePrefix = %d, want 1", n)
	}
	gone("E9?n=1", "")
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

	now = now.Add(2 * time.Minute)
	before := c.Stats().Expired
	gone("expired", "")
	if c.Stats().Expired != before+1 {
		t.Fatal("TTL expiry of an entry with aux not counted")
	}
	c.Clear()
	gone("cleared", "")
}

// Dump — and so every snapshot — carries payloads only.
func TestAuxNotDumped(t *testing.T) {
	c := NewCache(2, 0)
	c.SetStamped("a", []byte("payload-a"), 1)
	c.SetStamped("b", []byte("payload-b"), 2)
	mustAttach(t, c, "a", "tail-a")
	d := c.Dump()
	if len(d) != 2 || string(d[0].Val) != "payload-a" || d[0].AddedUnixNano != 1 || string(d[1].Val) != "payload-b" {
		t.Fatalf("Dump = %+v, want the two payloads and their stamps", d)
	}
}
