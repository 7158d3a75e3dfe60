package httpapi

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
)

// What the stream envelope delivers to a replica must be what the header
// carrier delivers: the same context through Forward → RequestContext and
// through EnvelopeFrom → Append → ParseStreamRequest → Context.
func TestStreamEnvelopeMatchesForward(t *testing.T) {
	cases := []struct {
		name     string
		class    admit.Class
		tenant   string
		hedge    bool
		deadline time.Duration
	}{
		{name: "bare"},
		{name: "batch tenant", class: admit.Batch, tenant: "team-a"},
		{name: "hedged deadline", hedge: true, deadline: 750 * time.Millisecond},
		{name: "all", class: admit.Batch, tenant: "t", hedge: true, deadline: 3 * time.Second},
	}
	const hop = 5 * time.Millisecond
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := admit.WithTenant(admit.WithClass(context.Background(), tc.class), tc.tenant)
			if tc.hedge {
				ctx = WithHedge(ctx)
			}
			if tc.deadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.deadline)
				defer cancel()
			}
			req, _ := http.NewRequest(http.MethodPost, "http://replica/v1/batch", nil)
			if err := Forward(req, ctx, hop); err != nil {
				t.Fatalf("Forward: %v", err)
			}
			viaHeaders, cancelH, err := RequestContext(req)
			if err != nil {
				t.Fatalf("RequestContext: %v", err)
			}
			defer cancelH()

			env, err := EnvelopeFrom(ctx, hop)
			if err != nil {
				t.Fatalf("EnvelopeFrom: %v", err)
			}
			frame := []byte("frame bytes")
			got, rest, err := ParseStreamRequest(append(env.Append(nil), frame...))
			if err != nil {
				t.Fatalf("ParseStreamRequest: %v", err)
			}
			if got != env || !bytes.Equal(rest, frame) {
				t.Fatalf("round trip: got %+v rest %q, want %+v rest %q", got, rest, env, frame)
			}
			viaStream, cancelS := got.Context(context.Background())
			defer cancelS()

			if a, b := admit.ClassFrom(viaHeaders), admit.ClassFrom(viaStream); a != b || b != tc.class {
				t.Fatalf("class: headers %v, stream %v, want %v", a, b, tc.class)
			}
			if a, b := admit.TenantFrom(viaHeaders), admit.TenantFrom(viaStream); a != b || b != tc.tenant {
				t.Fatalf("tenant: headers %q, stream %q, want %q", a, b, tc.tenant)
			}
			if a, b := IsHedge(viaHeaders), IsHedge(viaStream); a != b || b != tc.hedge {
				t.Fatalf("hedge: headers %v, stream %v, want %v", a, b, tc.hedge)
			}
			dh, okH := viaHeaders.Deadline()
			ds, okS := viaStream.Deadline()
			if okH != okS || okS != (tc.deadline > 0) {
				t.Fatalf("deadline presence: headers %v, stream %v", okH, okS)
			}
			if okS {
				// Both carry whole milliseconds, decremented by the hop.
				want := tc.deadline - hop
				if env.Deadline%time.Millisecond != 0 || env.Deadline > want+time.Millisecond || env.Deadline < want-50*time.Millisecond {
					t.Fatalf("envelope deadline %v, want ~%v in whole ms", env.Deadline, want)
				}
				if d := ds.Sub(dh); d < -50*time.Millisecond || d > 50*time.Millisecond {
					t.Fatalf("deadlines differ by %v between carriers", d)
				}
			}
		})
	}

	// A budget the hop would eat is shed at the sender on both carriers.
	doomed, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	var shed *admit.ShedError
	if _, err := EnvelopeFrom(doomed, hop); !errors.As(err, &shed) || !shed.Deadline {
		t.Fatalf("EnvelopeFrom on a doomed budget = %v, want a deadline ShedError", err)
	}
}

func TestStreamHeaderBounds(t *testing.T) {
	msg := make([]byte, StreamHeaderLen+5)
	PutStreamHeader(msg, 0xfeedbeef, StreamReply)
	id, kind, n, err := ParseStreamHeader(msg, 5)
	if err != nil || id != 0xfeedbeef || kind != StreamReply || n != 5 {
		t.Fatalf("header round trip = (%x, %d, %d, %v)", id, kind, n, err)
	}
	if _, _, _, err := ParseStreamHeader(msg, 4); !errors.Is(err, ErrStreamMessage) {
		t.Fatalf("body over the cap accepted: %v", err)
	}
	msg[4] = StreamError + 1
	if _, _, _, err := ParseStreamHeader(msg, 5); !errors.Is(err, ErrStreamMessage) {
		t.Fatalf("unknown kind accepted: %v", err)
	}
	if _, _, _, err := ParseStreamHeader(msg[:StreamHeaderLen-1], 5); !errors.Is(err, ErrStreamMessage) {
		t.Fatalf("short header accepted: %v", err)
	}
	// A length field of all ones must be refused, not allocated.
	huge := []byte{0, 0, 0, 1, StreamRequest, 0xff, 0xff, 0xff, 0xff}
	if _, _, _, err := ParseStreamHeader(huge, MaxBatchBytes); !errors.Is(err, ErrStreamMessage) {
		t.Fatalf("4 GiB body accepted: %v", err)
	}

	status, text, err := ParseStreamError(AppendStreamError(nil, 400, "bad frame"))
	if err != nil || status != 400 || text != "bad frame" {
		t.Fatalf("error body round trip = (%d, %q, %v)", status, text, err)
	}
	if _, _, err := ParseStreamError(AppendStreamError(nil, 200, "")); err == nil {
		t.Fatal("error body with status 200 accepted")
	}
	for _, body := range [][]byte{nil, {0}, {2, 0, 0, 0}, {0, 2, 0, 0}, {0, 0, 0x80}, {0, 0, 0, 9, 'x'},
		append([]byte{0, 0, 0, byte(admit.MaxTenantLen + 1)}, strings.Repeat("t", admit.MaxTenantLen+1)...)} {
		if _, _, err := ParseStreamRequest(body); err == nil {
			t.Fatalf("malformed envelope % x accepted", body)
		}
	}
}

// FuzzStreamMessage feeds arbitrary bytes to every parser a stream peer
// runs on input from the wire — header, request envelope + frame, error
// body — and checks that what parses re-encodes to an equivalent message.
func FuzzStreamMessage(f *testing.F) {
	env := Envelope{Class: admit.Batch, Tenant: "t", Hedge: true, Deadline: 20 * time.Millisecond}
	body := AppendBatchRequest(env.Append(nil), []BatchEntry{{ID: "E7", Params: []string{"f=0.9"}}})
	msg := append(make([]byte, StreamHeaderLen), body...)
	PutStreamHeader(msg, 7, StreamRequest)
	f.Add(msg)
	f.Add(append(make([]byte, StreamHeaderLen), AppendStreamError(nil, 503, "closing")...))
	f.Add([]byte{0, 0, 0, 1, StreamCancel, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, kind, n, err := ParseStreamHeader(data, MaxBatchBytes)
		if err != nil {
			return
		}
		if n > MaxBatchBytes {
			t.Fatalf("header admitted a %d-byte body", n)
		}
		body := data[StreamHeaderLen:]
		if len(body) > n {
			body = body[:n]
		}
		again := append(make([]byte, StreamHeaderLen), body...)
		PutStreamHeader(again, id, kind)
		if id2, kind2, n2, err := ParseStreamHeader(again, MaxBatchBytes); err != nil || id2 != id || kind2 != kind || n2 != len(body) {
			t.Fatalf("header does not round-trip: (%d, %d, %d, %v)", id2, kind2, n2, err)
		}
		if env, frame, err := ParseStreamRequest(body); err == nil {
			if len(frame) > len(body) || len(env.Tenant) > admit.MaxTenantLen || env.Deadline < 0 {
				t.Fatalf("envelope out of bounds: %+v, frame %d of %d", env, len(frame), len(body))
			}
			env2, frame2, err := ParseStreamRequest(append(env.Append(nil), frame...))
			if err != nil || env2 != env || !bytes.Equal(frame2, frame) {
				t.Fatalf("envelope does not round-trip: %+v vs %+v (%v)", env2, env, err)
			}
			_, _ = DecodeBatchRequest(frame)
		}
		if status, text, err := ParseStreamError(body); err == nil {
			s2, t2, err := ParseStreamError(AppendStreamError(nil, status, text))
			if err != nil || s2 != status || t2 != text {
				t.Fatalf("error body does not round-trip: (%d, %q, %v)", s2, t2, err)
			}
		}
	})
}
