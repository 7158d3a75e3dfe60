package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/tm"
)

func init() {
	register(Experiment{
		ID:    "E19",
		Title: "Transactional memory for programmability",
		PaperClaim: "TM seeks to significantly simplify parallelization and " +
			"synchronization in multithreaded code; research spans the stack and is " +
			"entering the commercial mainstream (§2.4)",
		Run: runE19,
	})
}

// bankWorkload runs opsPerThread random transfers over nAccounts on p
// goroutines, synchronized either by one global mutex or by STM, and
// returns throughput (ops/s) plus STM stats.
func bankWorkload(p, nAccounts, opsPerThread int, useSTM bool) (float64, tm.Stats) {
	accounts := make([]*tm.Var, nAccounts)
	for i := range accounts {
		accounts[i] = tm.NewVar(1000)
	}
	var mu sync.Mutex
	plain := make([]int64, nAccounts)
	for i := range plain {
		plain[i] = 1000
	}
	var st tm.Stats
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := stats.NewRNG(seed)
			for i := 0; i < opsPerThread; i++ {
				a := r.Intn(nAccounts)
				b := r.Intn(nAccounts)
				if a == b {
					continue
				}
				amt := int64(r.Intn(10))
				if useSTM {
					err := tm.Transfer(accounts[a], accounts[b], amt, &st)
					if err != nil && !errors.Is(err, tm.ErrInsufficient) {
						panic(err)
					}
				} else {
					mu.Lock()
					if plain[a] >= amt {
						plain[a] -= amt
						plain[b] += amt
					}
					mu.Unlock()
				}
			}
		}(uint64(g)*7919 + 17)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return float64(p*opsPerThread) / elapsed, st
}

func runE19(ctx context.Context, _ Params) Result {
	maxP := runtime.NumCPU()
	if maxP > 8 {
		maxP = 8
	}
	const nAccounts = 1024
	const ops = 30000
	tbl := report.NewTable("E19: bank transfers, global lock vs STM (1024 accounts)",
		"threads", "lock Mops/s", "stm Mops/s", "stm/lock", "stm abort rate")
	var lock1, lockP, stm1, stmP float64
	var abortP float64
	for p := 1; p <= maxP; p *= 2 {
		lockT, _ := bankWorkload(p, nAccounts, ops, false)
		stmT, st := bankWorkload(p, nAccounts, ops, true)
		tbl.AddRowf(p, lockT/1e6, stmT/1e6, stmT/lockT, st.AbortRate())
		if p == 1 {
			lock1, stm1 = lockT, stmT
		}
		lockP, stmP, abortP = lockT, stmT, st.AbortRate()
	}
	// Contended case: everything hammers 4 accounts.
	_, hot := bankWorkload(maxP, 4, ops/4, true)
	return Result{
		Table: tbl,
		Findings: []string{
			finding("lock scaling 1->%d threads: %.1fx; STM: %.1fx (disjoint-access parallelism is what TM harvests)",
				maxP, lockP/lock1, stmP/stm1),
			finding("STM abort rate on 1024 accounts at %d threads: %.2f%% (low contention: optimism pays)",
				maxP, abortP*100),
			finding("hammering 4 accounts raises the abort rate to %.0f%% (contention is TM's price)",
				hot.AbortRate()*100),
			finding("correctness is the headline: the same Transfer body is race-free with no lock-ordering reasoning (paper: simplify parallelization)"),
		},
	}
}
