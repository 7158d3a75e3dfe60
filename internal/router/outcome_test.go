package router

// The hedged race's outcome table: doHedged driven directly through two
// scripted backends on a primed scoreboard, one row per way the two legs
// can finish. Each leg waits on the other through the router's own books
// (the backup's start, a leg's charged failure), never on a sleep, so the
// order of events in a row is fixed.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/serve"
)

// raceRig is one row's shared state: the router under test and the
// signal that the backup leg has reached its backend.
type raceRig struct {
	r         *Router
	backupOut chan struct{}
	once      sync.Once
}

// leg is a scripted backend's behavior for one attempt: nil answers OK.
type leg func(rig *raceRig, ctx context.Context) error

// raceLeg is a backend that plays a script; the backup closes backupOut
// on entry.
type raceLeg struct {
	name   string
	backup bool
	rig    *raceRig
	play   leg
}

func (l *raceLeg) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	if l.backup {
		l.rig.once.Do(func() { close(l.rig.backupOut) })
	}
	if err := l.play(l.rig, ctx); err != nil {
		return nil, err
	}
	outs := make([]serve.BatchOutcome, len(items))
	for i, it := range items {
		outs[i].RawResponse = serve.RawResponse{ID: it.ID}
	}
	return outs, nil
}
func (l *raceLeg) Check() error { return nil }
func (l *raceLeg) Name() string { return l.name }

var errLeg = errors.New("scripted leg failure")

func answerOK(*raceRig, context.Context) error { return nil }

func failNow(*raceRig, context.Context) error { return errLeg }

func hang(_ *raceRig, ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

// afterBackupOut answers err once the backup leg is out.
func afterBackupOut(err error) leg {
	return func(rig *raceRig, ctx context.Context) error {
		select {
		case <-rig.backupOut:
			return err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// afterCharged answers err once backend b has been charged a failure.
func afterCharged(b int, err error) leg {
	return func(rig *raceRig, ctx context.Context) error {
		for rig.r.Metrics().Health[b].Failures == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Microsecond):
			}
		}
		return err
	}
}

func TestHedgeRaceOutcomeTable(t *testing.T) {
	const p, h = 0, 1 // primary and backup backend indices
	errClient := fmt.Errorf("%w: NOPE", serve.ErrUnknownExperiment)
	rows := []struct {
		name            string
		primary, backup leg
		timeout         time.Duration
		slowBudget      bool  // prime both rows at 1 s: no hedge can fire
		wantErr         error // nil: a successful answer
		wantFrom        int   // the backend the outcome is charged to
		wantHedged      int   // the backup's index once fired, else -1
		wantWins        int64
		wantFailures    [2]int64 // charged inside the race, per leg
		wantErrNamesLeg bool     // the error text names the deciding leg
	}{
		{name: "fast primary, no hedge", primary: answerOK, backup: failNow, slowBudget: true,
			wantFrom: p, wantHedged: -1},
		{name: "primary fails before the hedge fires", primary: failNow, backup: failNow, slowBudget: true,
			wantErr: errLeg, wantFrom: p, wantHedged: -1},
		{name: "slow primary, backup wins", primary: hang, backup: answerOK,
			wantFrom: h, wantHedged: h, wantWins: 1},
		{name: "primary fails while the backup is out", primary: afterBackupOut(errLeg), backup: afterCharged(p, nil),
			wantFrom: h, wantHedged: h, wantWins: 1, wantFailures: [2]int64{1, 0}},
		{name: "backup fails first, primary decides", primary: afterCharged(h, nil), backup: failNow,
			wantFrom: p, wantHedged: h, wantFailures: [2]int64{0, 1}},
		{name: "both fail, primary first", primary: afterBackupOut(errLeg), backup: afterCharged(p, errLeg),
			wantErr: errLeg, wantFrom: h, wantHedged: h, wantFailures: [2]int64{1, 0}},
		{name: "both fail, backup first", primary: afterCharged(h, errLeg), backup: failNow,
			wantErr: errLeg, wantFrom: p, wantHedged: h, wantFailures: [2]int64{0, 1}},
		{name: "backup answers 4xx", primary: hang, backup: func(*raceRig, context.Context) error { return errClient },
			wantErr: serve.ErrUnknownExperiment, wantFrom: h, wantHedged: h, wantWins: 1},
		{name: "backup sees a canceled context", primary: hang, backup: func(*raceRig, context.Context) error { return context.Canceled },
			wantErr: context.Canceled, wantFrom: h, wantHedged: h},
		{name: "timeout after the primary failed", primary: afterBackupOut(errLeg), backup: hang, timeout: 50 * time.Millisecond,
			wantErr: errAttemptTimeout, wantFrom: h, wantHedged: h, wantFailures: [2]int64{1, 0}, wantErrNamesLeg: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rig := &raceRig{backupOut: make(chan struct{})}
			legs := []Backend{
				&raceLeg{name: "primary", rig: rig, play: row.primary},
				&raceLeg{name: "backup", backup: true, rig: rig, play: row.backup},
			}
			timeout := row.timeout
			if timeout == 0 {
				timeout = 5 * time.Second
			}
			r, err := New(legs, Config{Timeout: timeout})
			if err != nil {
				t.Fatal(err)
			}
			rig.r = r
			prime := 100 * time.Microsecond // the 1 ms floor: a blocked primary is hedged at once
			if row.slowBudget {
				prime = time.Second
			}
			primeScore(r, p, prime)
			primeScore(r, h, prime)

			it := itemOf(serve.IdentOf("RACE", nil), admit.Interactive)
			out, from, hedged := r.doHedged(context.Background(), p, []int{h}, it)
			switch {
			case row.wantErr == nil && out.Err != nil:
				t.Fatalf("err %v, want an answer", out.Err)
			case row.wantErr != nil && !errors.Is(out.Err, row.wantErr):
				t.Fatalf("err %v, want %v", out.Err, row.wantErr)
			}
			if row.wantErrNamesLeg && !strings.Contains(out.Err.Error(), legs[from].Name()) {
				t.Fatalf("err %q does not name %s", out.Err, legs[from].Name())
			}
			if from != row.wantFrom || hedged != row.wantHedged {
				t.Fatalf("from %d hedged %d, want %d and %d", from, hedged, row.wantFrom, row.wantHedged)
			}
			m := r.Metrics()
			wantHedges := int64(0)
			if row.wantHedged >= 0 {
				wantHedges = 1
			}
			if m.Hedges != wantHedges || m.HedgeWins != row.wantWins {
				t.Fatalf("hedges %d wins %d, want %d and %d", m.Hedges, m.HedgeWins, wantHedges, row.wantWins)
			}
			if m.Health[p].Hedges != wantHedges || m.Health[p].HedgeWins != row.wantWins {
				t.Fatalf("primary row %+v, want the hedge counted there", m.Health[p])
			}
			for b, want := range row.wantFailures {
				if got := m.Health[b].Failures; got != want {
					t.Fatalf("%s charged %d failures in the race, want %d", legs[b].Name(), got, want)
				}
			}
			waitInflightDrain(t, r)
		})
	}
}
