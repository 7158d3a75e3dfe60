package serve

// Tier-2 snapshot tests: codec round-trips, corrupt/truncated files are
// skipped rather than fatal, invalidation coherence across tiers, and
// race tests driving concurrent snapshot writes against serve traffic
// and deletions while the hits+misses==gets conservation law must keep
// holding.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

func snapResult(id string) core.Result {
	tb := report.NewTable("result for "+id, "metric", "value")
	tb.AddRow("answer", "42")
	return core.Result{Table: tb, Findings: []string{"finding for " + id}}
}

func newSnapEngine(path string, runs *atomic.Int64) *Engine {
	return NewEngine(Config{Shards: 4, Workers: 2, SnapshotPath: path,
		RunnerWith: byID(func(id string) (core.Result, error) {
			if runs != nil {
				runs.Add(1)
			}
			return snapResult(id), nil
		})})
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	kvs := []KV{
		{Key: "E1", Val: snapResult("E1").Encode()},
		{Key: "E7?bces=64&f=0.99", Val: snapResult("E7").Encode()},
		{Key: "empty", Val: []byte{}},
	}
	got, err := DecodeSnapshot(EncodeSnapshot(kvs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(kvs) {
		t.Fatalf("round trip lost entries: %d vs %d", len(got), len(kvs))
	}
	for i := range kvs {
		if got[i].Key != kvs[i].Key || string(got[i].Val) != string(kvs[i].Val) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, got[i], kvs[i])
		}
	}
	// Empty snapshot round-trips too.
	if got, err := DecodeSnapshot(EncodeSnapshot(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
	// Records whose reserved varint is not 0 (files that stored an
	// insertion time there) decode all the same.
	if got, err := DecodeSnapshot(stamped(kvs, 1234567890, -5, 0)); err != nil || !kvsPrefix(kvs, got) || len(got) != len(kvs) {
		t.Fatalf("records with non-zero reserved fields: %+v %v", got, err)
	}
}

func TestSnapshotWarmStartServesHits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	var coldRuns atomic.Int64
	e := newSnapEngine(path, &coldRuns)
	for i := 0; i < 5; i++ {
		if _, err := serveDefault(e, fmt.Sprintf("X%d", i)); err != nil {
			t.Fatalf("Serve: %v", err)
		}
	}
	if err := e.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	e.Close()

	var warmRuns atomic.Int64
	e2 := newSnapEngine(path, &warmRuns)
	defer e2.Close()
	if m := e2.Metrics(); m.Snapshot.Loaded != 5 {
		t.Fatalf("warm start loaded %d entries, want 5", m.Snapshot.Loaded)
	}
	for i := 0; i < 5; i++ {
		resp, err := serveDefault(e2, fmt.Sprintf("X%d", i))
		if err != nil {
			t.Fatalf("Serve after restart: %v", err)
		}
		if !resp.CacheHit {
			t.Fatalf("X%d should be a tier-2 warm hit", i)
		}
		if resp.Result.Render() != snapResult(fmt.Sprintf("X%d", i)).Render() {
			t.Fatal("warm-started result differs")
		}
	}
	if warmRuns.Load() != 0 {
		t.Fatalf("restart re-executed %d experiments", warmRuns.Load())
	}
	if m := e2.Metrics(); m.CacheHits != 5 {
		t.Fatalf("stats: cache_hits = %d, want 5", m.CacheHits)
	}
}

func TestSnapshotCorruptAndTruncatedAreSkippedNotFatal(t *testing.T) {
	dir := t.TempDir()

	// Garbage file: nothing loads, engine still works.
	garbage := filepath.Join(dir, "garbage.snap")
	if err := os.WriteFile(garbage, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := newSnapEngine(garbage, nil)
	if m := e.Metrics(); m.Snapshot.Loaded != 0 {
		t.Fatalf("garbage snapshot loaded %d entries", m.Snapshot.Loaded)
	}
	if _, err := serveDefault(e, "X1"); err != nil {
		t.Fatalf("engine with garbage snapshot cannot serve: %v", err)
	}
	e.Close()

	// Truncated file: the readable prefix loads, the rest is skipped.
	full := EncodeSnapshot([]KV{
		{Key: "A", Val: snapResult("A").Encode()},
		{Key: "B", Val: snapResult("B").Encode()},
		{Key: "C", Val: snapResult("C").Encode()},
	})
	trunc := filepath.Join(dir, "trunc.snap")
	if err := os.WriteFile(trunc, full[:len(full)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	e2 := newSnapEngine(trunc, &runs)
	defer e2.Close()
	m := e2.Metrics()
	if m.Snapshot.Loaded == 0 || m.Snapshot.Loaded >= 3 {
		t.Fatalf("truncated snapshot should load a strict prefix, loaded %d", m.Snapshot.Loaded)
	}
	if resp, err := serveDefault(e2, "A"); err != nil || !resp.CacheHit {
		t.Fatalf("prefix entry A should warm-hit: %v %+v", err, resp)
	}

	// An entry whose payload is not a decodable Result is skipped at load.
	bad := filepath.Join(dir, "bad-entry.snap")
	enc := EncodeSnapshot([]KV{
		{Key: "good", Val: snapResult("good").Encode()},
		{Key: "bad", Val: []byte{0xff, 0xfe, 0xfd}},
	})
	if err := os.WriteFile(bad, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := newSnapEngine(bad, nil)
	defer e3.Close()
	if m := e3.Metrics(); m.Snapshot.Loaded != 1 || m.Snapshot.Skipped != 1 {
		t.Fatalf("bad-entry snapshot: loaded=%d skipped=%d, want 1/1",
			m.Snapshot.Loaded, m.Snapshot.Skipped)
	}
}

func TestSnapshotInvalidationCoherence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	e := newSnapEngine(path, nil)
	if _, err := serveDefault(e, "X1"); err != nil {
		t.Fatal(err)
	}
	if _, err := serveDefault(e, "X2"); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Reset: both tiers must forget X1 — a restart cannot resurrect the
	// dropped entry from disk. X2 is served again and saved after it.
	e.Reset()
	if _, err := serveDefault(e, "X2"); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	var runs atomic.Int64
	e2 := newSnapEngine(path, &runs)
	defer e2.Close()
	if resp, err := serveDefault(e2, "X2"); err != nil || !resp.CacheHit {
		t.Fatalf("X2 should survive as a warm hit: %v %+v", err, resp)
	}
	resp, err := serveDefault(e2, "X1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("X1, dropped by Reset, resurrected from the tier-2 snapshot")
	}
	if runs.Load() != 1 {
		t.Fatalf("X1 should re-execute exactly once, ran %d", runs.Load())
	}
}

func TestSnapshotResetCoherence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	e := newSnapEngine(path, nil)
	if _, err := serveDefault(e, "X1"); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	e.Close()

	e2 := newSnapEngine(path, nil)
	defer e2.Close()
	if m := e2.Metrics(); m.Snapshot.Loaded != 0 {
		t.Fatalf("reset engine's snapshot warm-loaded %d entries, want 0", m.Snapshot.Loaded)
	}
}

// A failing snapshot write must be surfaced (error + SaveFails counter),
// and a Reset whose coherence rewrite fails must still succeed in memory
// — with the disk tier dropped rather than left stale.
func TestSnapshotSaveFailureIsCountedAndCoherent(t *testing.T) {
	dir := t.TempDir()
	// The snapshot's parent "directory" is a plain file, so every write
	// (and the fallback remove of a nonexistent snapshot) fails.
	parent := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(parent, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := newSnapEngine(filepath.Join(parent, "cache.snap"), nil)
	defer e.Close()
	if _, err := serveDefault(e, "X1"); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSnapshot(); err == nil {
		t.Fatal("save into a non-directory should error")
	}
	e.Reset()
	if r, err := serveDefault(e, "X1"); err != nil || r.CacheHit {
		t.Fatalf("Reset must still drop the memory tier when the disk tier is unwritable: %v %+v", err, r)
	}
	m := e.Metrics()
	if m.Snapshot.SaveFails < 2 {
		t.Fatalf("save failures not counted: %+v", m.Snapshot)
	}
	if m.Snapshot.Saves != 0 {
		t.Fatalf("failed saves must not count as saves: %+v", m.Snapshot)
	}
}

// The two-tier race: serve traffic, snapshot saves, and deletions all
// run concurrently; afterwards the cache conservation law hits+misses ==
// gets must still hold, and the snapshot file must be a clean decode.
func TestSnapshotConcurrencyPreservesConservationLaw(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	e := newSnapEngine(path, nil)
	defer e.Close()

	const (
		goroutines = 8
		iters      = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch {
				case g == 0 && i%10 == 0:
					if err := e.SaveSnapshot(); err != nil {
						t.Errorf("SaveSnapshot: %v", err)
						return
					}
				case g == 1 && i%25 == 0:
					e.cache.Delete(fmt.Sprintf("K%d", i%7))
				default:
					if _, err := serveDefault(e, fmt.Sprintf("K%d", i%7)); err != nil {
						t.Errorf("Serve: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// The engine-level conservation law must survive snapshot writes and
	// deletions racing with traffic: every request is classified into
	// exactly one of hit, deduped, or execution.
	m := e.Metrics()
	if m.Requests == 0 || m.Cache.Hits+m.Cache.Misses == 0 {
		t.Fatal("no traffic measured")
	}
	if m.Sheds != 0 {
		t.Fatalf("%d sheds under two-tier concurrency, want none", m.Sheds)
	}
	checkConservation(t, e)
	kvs, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("snapshot after concurrent writes must decode cleanly: %v", err)
	}
	for _, kv := range kvs {
		if _, err := core.DecodeResult(kv.Val); err != nil {
			t.Fatalf("snapshot entry %q holds a corrupt payload: %v", kv.Key, err)
		}
	}
}

// The conservation law across a restart: gets issued against a
// warm-started engine still classify 1:1 into hits and misses.
func TestSnapshotRestartConservationLaw(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	e := newSnapEngine(path, nil)
	for i := 0; i < 4; i++ {
		if _, err := serveDefault(e, fmt.Sprintf("K%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2 := newSnapEngine(path, nil)
	defer e2.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// K0..K3 warm-hit, K4..K7 miss then hit.
				if _, err := serveDefault(e2, fmt.Sprintf("K%d", i%8)); err != nil {
					t.Errorf("Serve: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	m := e2.Metrics()
	gets := m.Cache.Hits + m.Cache.Misses
	if gets == 0 {
		t.Fatal("no gets recorded")
	}
	// Engine-level accounting must agree with cache-level accounting:
	// requests that hit (tier-1, warm-started or not) plus executions
	// equals total requests (singleflight sharers excepted — they issue
	// no get of their own once deduplicated, so compare via hit counts).
	if m.CacheHits == 0 {
		t.Fatal("warm-started entries produced no hits")
	}
	if m.Sheds != 0 {
		t.Fatalf("%d sheds on a warm start, want none", m.Sheds)
	}
	checkConservation(t, e2)
}
