package tm

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/stats"
)

func TestSingleThreadReadWrite(t *testing.T) {
	v := NewVar(10)
	err := Atomic(func(tx *Txn) error {
		x, err := tx.Read(v)
		if err != nil {
			return err
		}
		tx.Write(v, x*2)
		return nil
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.val.Load() != 20 {
		t.Fatalf("value = %d, want 20", v.val.Load())
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	v := NewVar(1)
	err := Atomic(func(tx *Txn) error {
		tx.Write(v, 5)
		x, err := tx.Read(v)
		if err != nil {
			return err
		}
		if x != 5 {
			t.Fatalf("read-own-write = %d, want 5", x)
		}
		return nil
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUserErrorPropagatesWithoutCommit(t *testing.T) {
	v := NewVar(1)
	sentinel := errors.New("boom")
	err := Atomic(func(tx *Txn) error {
		tx.Write(v, 99)
		return sentinel
	}, nil, 0)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if v.val.Load() != 1 {
		t.Fatal("aborted transaction must not publish writes")
	}
}

func TestTransferPrecondition(t *testing.T) {
	a, b := NewVar(50), NewVar(0)
	if err := Transfer(a, b, 100, nil); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	if a.val.Load() != 50 || b.val.Load() != 0 {
		t.Fatal("failed transfer mutated state")
	}
	if err := Transfer(a, b, 30, nil); err != nil {
		t.Fatal(err)
	}
	if a.val.Load() != 20 || b.val.Load() != 30 {
		t.Fatal("transfer arithmetic wrong")
	}
}

func TestConcurrentCounter(t *testing.T) {
	v := NewVar(0)
	var wg sync.WaitGroup
	const goroutines = 8
	const perG = 2000
	var st Stats
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := Atomic(func(tx *Txn) error {
					x, err := tx.Read(v)
					if err != nil {
						return err
					}
					tx.Write(v, x+1)
					return nil
				}, &st, 0)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v.val.Load() != goroutines*perG {
		t.Fatalf("counter = %d, want %d", v.val.Load(), goroutines*perG)
	}
	if st.Commits != goroutines*perG {
		t.Fatalf("commits = %d", st.Commits)
	}
}

// The canonical conservation test: concurrent random transfers never create
// or destroy money, and every read-only audit sees a consistent total.
func TestBankConservation(t *testing.T) {
	const nAccounts = 64
	const total = int64(nAccounts * 100)
	accounts := make([]*Var, nAccounts)
	for i := range accounts {
		accounts[i] = NewVar(100)
	}
	var transfers, auditors sync.WaitGroup
	var st Stats
	stop := make(chan struct{})
	// Auditors: read-only transactions must always see the invariant.
	for a := 0; a < 2; a++ {
		auditors.Add(1)
		go func() {
			defer auditors.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sum int64
				err := Atomic(func(tx *Txn) error {
					sum = 0
					for _, acc := range accounts {
						x, err := tx.Read(acc)
						if err != nil {
							return err
						}
						sum += x
					}
					return nil
				}, &st, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if sum != total {
					t.Errorf("audit saw %d, want %d", sum, total)
					return
				}
			}
		}()
	}
	// Transferrers.
	for g := 0; g < 6; g++ {
		transfers.Add(1)
		go func(seed uint64) {
			defer transfers.Done()
			r := stats.NewRNG(seed)
			for i := 0; i < 3000; i++ {
				from := accounts[r.Intn(nAccounts)]
				to := accounts[r.Intn(nAccounts)]
				if from == to {
					continue
				}
				err := Transfer(from, to, int64(r.Intn(20)), &st)
				if err != nil && !errors.Is(err, ErrInsufficient) {
					t.Error(err)
					return
				}
			}
		}(uint64(g) + 1)
	}
	transfers.Wait()
	close(stop)
	auditors.Wait()
	var sum int64
	for _, acc := range accounts {
		sum += acc.val.Load()
	}
	if sum != total {
		t.Fatalf("final total = %d, want %d", sum, total)
	}
}

func TestAbortsHappenUnderContention(t *testing.T) {
	v := NewVar(0)
	var st Stats
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				_ = Atomic(func(tx *Txn) error {
					x, err := tx.Read(v)
					if err != nil {
						return err
					}
					tx.Write(v, x+1)
					return nil
				}, &st, 0)
			}
		}()
	}
	wg.Wait()
	if st.Aborts == 0 {
		t.Log("no aborts observed (machine too serial?); not failing")
	}
	if st.AbortRate() < 0 || st.AbortRate() >= 1 {
		t.Fatalf("abort rate = %v", st.AbortRate())
	}
	if st.String() == "" {
		t.Fatal("stats string empty")
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	v := NewVar(0)
	// A transaction that always conflicts: simulate by returning
	// errConflict through a Read of a variable we immediately invalidate.
	// Directly: use maxRetries=1 with a guaranteed conflict via lock bit.
	v.lock.Store(lockedBit)
	err := Atomic(func(tx *Txn) error {
		_, err := tx.Read(v)
		return err
	}, nil, 3)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	v.lock.Store(0)
}

func TestSnapshotConsistency(t *testing.T) {
	// Two variables updated together must never be observed out of sync.
	x, y := NewVar(0), NewVar(0)
	var writer, readers sync.WaitGroup
	stopWriter := make(chan struct{})
	writer.Add(1)
	go func() {
		defer writer.Done()
		i := int64(1)
		for {
			select {
			case <-stopWriter:
				return
			default:
			}
			_ = Atomic(func(tx *Txn) error {
				tx.Write(x, i)
				tx.Write(y, -i)
				return nil
			}, nil, 0)
			i++
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 5000; i++ {
				var sx, sy int64
				err := Atomic(func(tx *Txn) error {
					var err error
					sx, err = tx.Read(x)
					if err != nil {
						return err
					}
					sy, err = tx.Read(y)
					return err
				}, nil, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if sx+sy != 0 {
					t.Errorf("torn snapshot: x=%d y=%d", sx, sy)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stopWriter)
	writer.Wait()
}
