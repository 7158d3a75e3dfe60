package httpapi

// The replica stream's wire contract: one persistent connection per
// (front-end, replica) pair, reached by upgrading GET /v1/stream
// (Connection: Upgrade, Upgrade: arch21-stream → 101), that carries the
// batch codec's A21B/A21R frames as length-prefixed messages
//
//	[u32 id][u8 kind][u32 len] + len body bytes   (big-endian)
//
// so a frame is one write and one read instead of a net/http exchange. A request body is the QoS envelope POST /batch carries in
// X-Arch21-* headers — [u8 class][u8 hedge][uvarint deadline ms, 0 =
// none][uvarint n][n tenant bytes] — then the A21B frame; a reply body is
// the A21R frame, or [uvarint status][message] for a frame that failed as
// a whole. Replies carry their request's id and may arrive in any order.
// Lengths are checked against a cap before anything is allocated;
// FuzzStreamMessage drives the parsers.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/admit"
)

const (
	// StreamProtocol is the Upgrade token of the replica stream.
	StreamProtocol = "arch21-stream"
	// StreamHeaderLen is the fixed message header size.
	StreamHeaderLen = 9
	// MaxStreamReplyBytes caps a reply body (a request body is capped at
	// MaxBatchBytes; its 4096 entries answer with 4096 payloads).
	MaxStreamReplyBytes = 64 << 20
	// StreamWriteTimeout bounds one message write, so a peer that stops
	// reading cannot hold a connection's write lock forever.
	StreamWriteTimeout = 30 * time.Second
)

// Stream message kinds: request and cancel travel front-end → replica,
// reply and error back. A cancel abandons request id and has no body.
const (
	StreamRequest byte = 1 + iota
	StreamCancel
	StreamReply
	StreamError
)

// ErrStreamMessage marks a stream message that failed to parse.
var ErrStreamMessage = errors.New("httpapi: bad stream message")

// PutStreamHeader fills msg's first StreamHeaderLen bytes; the body is
// everything after them.
func PutStreamHeader(msg []byte, id uint32, kind byte) {
	binary.BigEndian.PutUint32(msg, id)
	msg[4] = kind
	binary.BigEndian.PutUint32(msg[5:], uint32(len(msg)-StreamHeaderLen))
}

// ParseStreamHeader splits a message header, rejecting an unknown kind
// or a body longer than maxLen before the caller allocates for it.
func ParseStreamHeader(hdr []byte, maxLen int) (id uint32, kind byte, n int, err error) {
	if len(hdr) < StreamHeaderLen {
		return 0, 0, 0, fmt.Errorf("%w: short header", ErrStreamMessage)
	}
	id, kind = binary.BigEndian.Uint32(hdr), hdr[4]
	size := binary.BigEndian.Uint32(hdr[5:])
	if kind < StreamRequest || kind > StreamError || uint64(size) > uint64(maxLen) {
		return 0, 0, 0, fmt.Errorf("%w: kind %d with a %d-byte body (cap %d)", ErrStreamMessage, kind, size, maxLen)
	}
	return id, kind, int(size), nil
}

// ReadStreamMessage reads one message. Its header is checked in br's own
// buffer (ParseStreamHeader), and only then is the body read into a buffer
// from get — a pool's, so a reader waiting between messages holds none.
func ReadStreamMessage(br *bufio.Reader, maxLen int, get func() *[]byte) (id uint32, kind byte, body *[]byte, err error) {
	hdr, err := br.Peek(StreamHeaderLen)
	var n int
	if err == nil {
		id, kind, n, err = ParseStreamHeader(hdr, maxLen)
	}
	if err != nil {
		return 0, 0, nil, err
	}
	_, _ = br.Discard(StreamHeaderLen) // Peek has buffered them
	body = get()
	*body = slices.Grow((*body)[:0], n)[:n]
	_, err = io.ReadFull(br, *body)
	return id, kind, body, err
}

// Envelope is a request's QoS envelope as it crosses a hop: what Forward
// stamps into X-Arch21-* headers and a stream request carries in front
// of its frame. Deadline is the remaining budget (0 = none).
type Envelope struct {
	Class    admit.Class
	Tenant   string
	Hedge    bool
	Deadline time.Duration
}

// EnvelopeFrom reads the context's envelope for an outbound hop: the
// remaining deadline is decremented by hopBudget — the slice this hop
// keeps for transfer and decode — and rounded up to whole milliseconds.
// A budget that cannot survive the hop returns an *admit.ShedError with
// Deadline set: a shed decided at the sender instead of burning the wire.
func EnvelopeFrom(ctx context.Context, hopBudget time.Duration) (Envelope, error) {
	env := Envelope{Class: admit.ClassFrom(ctx), Tenant: admit.TenantFrom(ctx), Hedge: IsHedge(ctx)}
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl) - hopBudget
		if remaining <= 0 {
			return env, &admit.ShedError{Class: env.Class, Deadline: true, RetryAfter: hopBudget}
		}
		env.Deadline = time.Duration(math.Ceil(remaining.Seconds()*1e3)) * time.Millisecond
	}
	return env, nil
}

// Context layers the envelope onto parent, the receiving half of
// EnvelopeFrom. The returned cancel must be called when the request ends.
func (env Envelope) Context(parent context.Context) (context.Context, context.CancelFunc) {
	ctx := parent
	if env.Class != admit.ClassFrom(ctx) {
		ctx = admit.WithClass(ctx, env.Class)
	}
	ctx = admit.WithTenant(ctx, env.Tenant)
	if env.Hedge {
		ctx = WithHedge(ctx)
	}
	if env.Deadline > 0 {
		return context.WithTimeout(ctx, env.Deadline)
	}
	return ctx, func() {}
}

// Append appends the envelope in stream-request form.
func (env Envelope) Append(dst []byte) []byte {
	dst = append(dst, byte(env.Class), 0)
	if env.Hedge {
		dst[len(dst)-1] = 1
	}
	dst = appendUvarint(dst, uint64(env.Deadline/time.Millisecond))
	dst = appendUvarint(dst, uint64(len(env.Tenant)))
	return append(dst, env.Tenant...)
}

// ParseStreamRequest splits a request body into its envelope and the
// A21B frame behind it. The tenant is a copy; the frame aliases body.
func ParseStreamRequest(body []byte) (Envelope, []byte, error) {
	if len(body) < 2 || int(body[0]) >= len(admit.Classes()) || body[1] > 1 {
		return Envelope{}, nil, fmt.Errorf("%w: bad class or hedge byte", ErrStreamMessage)
	}
	fr := &frameReader{buf: body, off: 2}
	ms, err := fr.uvarint()
	if err == nil && ms > uint64(math.MaxInt64/time.Millisecond) {
		err = fmt.Errorf("%w: deadline of %d ms overflows", ErrStreamMessage, ms)
	}
	var raw []byte
	if err == nil {
		raw, err = fr.chunk()
	}
	tenant := string(raw)
	if err == nil {
		tenant, err = admit.ParseTenant(tenant)
	}
	if err != nil {
		return Envelope{}, nil, err
	}
	return Envelope{Class: admit.Class(body[0]), Tenant: tenant, Hedge: body[1] == 1,
		Deadline: time.Duration(ms) * time.Millisecond}, body[fr.off:], nil
}

// AppendStreamError appends a StreamError body.
func AppendStreamError(dst []byte, status int, msg string) []byte {
	return append(appendUvarint(dst, uint64(status)), msg...)
}

// ParseStreamError splits a StreamError body.
func ParseStreamError(body []byte) (status int, msg string, err error) {
	fr := &frameReader{buf: body}
	s, err := fr.uvarint()
	if err == nil && (s < 400 || s > 599) {
		err = fmt.Errorf("%w: error status %d outside 400..599", ErrStreamMessage, s)
	}
	return int(s), string(body[fr.off:]), err
}
