// Package tm implements a word-based software transactional memory in the
// TL2 style (global version clock, per-variable versioned locks, lazy
// write-back with commit-time validation). The paper names transactional
// memory as the flagship hardware/software programmability direction
// ("TM ... seeks to significantly simplify parallelization and
// synchronization ... now entering the commercial mainstream", §2.4); this
// package provides a real, race-free implementation whose scalability and
// abort behaviour E19 measures against lock-based synchronization.
package tm

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// lock word layout: bit 0 = locked, bits 1..63 = version.
const lockedBit = 1

// globalClock is the TL2 global version clock, shared by all Vars.
var globalClock atomic.Uint64

// Var is a transactional 64-bit variable. The zero value holds 0 and is
// ready to use.
type Var struct {
	lock atomic.Uint64 // versioned lock
	val  atomic.Int64  // current committed value
}

// NewVar returns a variable initialized to v.
func NewVar(v int64) *Var {
	nv := &Var{}
	nv.val.Store(v)
	return nv
}

// errConflict aborts the current attempt; Atomic retries.
var errConflict = errors.New("tm: conflict")

// ErrAborted is returned by Atomic when the transaction exceeded its retry
// budget.
var ErrAborted = errors.New("tm: transaction aborted (retry budget exhausted)")

// Txn is one transaction attempt. It must only be used inside Atomic.
type Txn struct {
	readVersion uint64
	reads       []*Var
	writes      map[*Var]int64
	writeOrder  []*Var
}

// Read returns v's value as of the transaction's snapshot.
func (t *Txn) Read(v *Var) (int64, error) {
	if t.writes != nil {
		if buf, ok := t.writes[v]; ok {
			return buf, nil
		}
	}
	l1 := v.lock.Load()
	if l1&lockedBit != 0 {
		return 0, errConflict
	}
	val := v.val.Load()
	l2 := v.lock.Load()
	if l1 != l2 || (l2>>1) > t.readVersion {
		return 0, errConflict
	}
	t.reads = append(t.reads, v)
	return val, nil
}

// Write buffers a store to v; it becomes visible only if the transaction
// commits.
func (t *Txn) Write(v *Var, x int64) {
	if t.writes == nil {
		t.writes = make(map[*Var]int64, 4)
	}
	if _, seen := t.writes[v]; !seen {
		t.writeOrder = append(t.writeOrder, v)
	}
	t.writes[v] = x
}

// commit performs TL2 commit: lock the write set, bump the clock, validate
// the read set, publish, release.
func (t *Txn) commit() error {
	if len(t.writes) == 0 {
		// Read-only transactions validated on the fly: nothing to do.
		return nil
	}
	// Acquire write locks in first-write order; to make deadlock
	// impossible we abort (rather than block) on any busy lock.
	locked := make([]*Var, 0, len(t.writeOrder))
	release := func() {
		for _, v := range locked {
			l := v.lock.Load()
			v.lock.Store(l &^ lockedBit)
		}
	}
	for _, v := range t.writeOrder {
		l := v.lock.Load()
		if l&lockedBit != 0 || (l>>1) > t.readVersion {
			release()
			return errConflict
		}
		if !v.lock.CompareAndSwap(l, l|lockedBit) {
			release()
			return errConflict
		}
		locked = append(locked, v)
	}
	wv := globalClock.Add(1)
	// Validate reads: unchanged and not locked by others.
	for _, v := range t.reads {
		if _, mine := t.writes[v]; mine {
			continue
		}
		l := v.lock.Load()
		if l&lockedBit != 0 || (l>>1) > t.readVersion {
			release()
			return errConflict
		}
	}
	// Publish and release with the new version.
	for _, v := range t.writeOrder {
		v.val.Store(t.writes[v])
		v.lock.Store(wv << 1)
	}
	return nil
}

// Stats counts transaction outcomes.
type Stats struct {
	Commits uint64
	Aborts  uint64
}

// Atomic runs fn transactionally, retrying on conflicts up to maxRetries
// times (0 means a default of 1,000,000). It returns fn's error unchanged
// if fn fails for a non-conflict reason. The optional stats receives
// commit/abort counts (atomically, so it can be shared across goroutines).
func Atomic(fn func(*Txn) error, stats *Stats, maxRetries int) error {
	if maxRetries <= 0 {
		maxRetries = 1000000
	}
	for attempt := 0; attempt < maxRetries; attempt++ {
		t := &Txn{readVersion: globalClock.Load()}
		err := fn(t)
		if err == nil {
			err = t.commit()
		}
		switch {
		case err == nil:
			if stats != nil {
				atomic.AddUint64(&stats.Commits, 1)
			}
			return nil
		case errors.Is(err, errConflict):
			if stats != nil {
				atomic.AddUint64(&stats.Aborts, 1)
			}
			continue
		default:
			return err
		}
	}
	return ErrAborted
}

// Transfer atomically moves amount from one account to another, failing
// with ErrInsufficient when the source lacks funds. It is the canonical
// "TM makes this trivial" example.
func Transfer(from, to *Var, amount int64, stats *Stats) error {
	return Atomic(func(t *Txn) error {
		f, err := t.Read(from)
		if err != nil {
			return err
		}
		if f < amount {
			return ErrInsufficient
		}
		g, err := t.Read(to)
		if err != nil {
			return err
		}
		t.Write(from, f-amount)
		t.Write(to, g+amount)
		return nil
	}, stats, 0)
}

// ErrInsufficient reports a failed Transfer precondition.
var ErrInsufficient = errors.New("tm: insufficient funds")

// AbortRate returns aborts/(commits+aborts).
func (s *Stats) AbortRate() float64 {
	c := atomic.LoadUint64(&s.Commits)
	a := atomic.LoadUint64(&s.Aborts)
	if c+a == 0 {
		return 0
	}
	return float64(a) / float64(c+a)
}

func (s *Stats) String() string {
	return fmt.Sprintf("commits=%d aborts=%d (%.1f%%)",
		atomic.LoadUint64(&s.Commits), atomic.LoadUint64(&s.Aborts),
		100*s.AbortRate())
}
