package httpapi

// The multi-request wire contract behind POST /batch: one varint-framed
// request body carrying many (experiment, assignment, class) entries,
// answered by one varint-framed response carrying a per-entry outcome
// word plus either the memoized result payload (served zero-copy from
// the replica's slab) or an (HTTP status, message) error — and, when the
// entry was shed, the retry hint a single response carries as Retry-After
// (one more outcome-word bit, then a uvarint of milliseconds). The frame
// replaces the per-request X-Arch21-* response headers: a batch of 64
// warm hits costs one HTTP round trip and one header block instead of
// 64, which is what lets routed throughput track engine throughput (the
// "communication dominates computation" amortization the batched data
// plane exists for).
//
// Both decoders follow core.DecodeResult's hardening discipline: every
// length is clamped against the bytes actually remaining before any
// allocation (a hostile count cannot pre-allocate gigabytes), and a
// payload with trailing bytes after the last entry is rejected as
// corrupt rather than silently accepted. FuzzBatchFrame drives both.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/admit"
)

// Frame magics: four bytes + a version byte open every batch payload, so
// a frame fed to the wrong decoder (or a truncated/garbage body) fails
// immediately and loudly instead of mis-parsing.
const (
	// BatchRequestMagic opens a batch request frame.
	BatchRequestMagic = "A21B"
	// BatchResponseMagic opens a batch response frame.
	BatchResponseMagic = "A21R"
	// BatchVersion is the frame version both magics carry.
	BatchVersion = 1
)

// MaxBatchEntries bounds one frame's entry count — same order as
// sweep.MaxPoints, so a whole sweep grid fits in frames but a hostile
// count cannot queue unbounded work from one body.
const MaxBatchEntries = 4096

// MaxBatchBytes bounds a batch request body (http.MaxBytesReader cap in
// the handlers).
const MaxBatchBytes = 8 << 20

// ErrBatchFrame marks a batch frame that failed to decode.
var ErrBatchFrame = errors.New("httpapi: bad batch frame")

// BatchEntry is one request in a batch frame: the experiment ID, the
// QoS class the entry is served and accounted under, and the parameter
// assignments in "name=value" wire form (the same strings the ?param
// query key and X-Arch21-Param header carry).
type BatchEntry struct {
	ID     string
	Class  admit.Class
	Params []string
}

// BatchResult is one entry's outcome in a batch response frame. OK
// entries carry the cache key and the raw core.Result codec payload;
// failed entries carry the HTTP status and message the entry would have
// answered with as a single request, so the caller can apply exactly
// the per-status semantics (shed vs client error vs replica failure) it
// applies to single-request responses.
type BatchResult struct {
	OK       bool
	CacheHit bool
	Shared   bool
	// Key and Payload are set when OK. Payload aliases the decoded
	// buffer — callers must not modify it and must copy it to outlive
	// the buffer.
	Key     string
	Payload []byte
	// Status and Msg are set when !OK.
	Status int
	Msg    string
	// RetryAfter is a shed entry's backoff hint (!OK only; 0 means none),
	// carried at millisecond precision.
	RetryAfter time.Duration
}

// Outcome word bit layout (one byte per entry).
const (
	batchOK       = 0x01
	batchCacheHit = 0x02
	batchShared   = 0x04
	batchRetry    = 0x08 // !OK only: a uvarint of milliseconds follows the message
)

// bufPool recycles batch encode/decode scratch buffers across requests;
// the routed hot loop would otherwise allocate a fresh frame buffer per
// exchange. Buffers are passed as *[]byte so the pool never allocates on
// Put (staticcheck SA6002).
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuffer takes a reusable byte buffer from the shared pool. The
// caller appends into (*buf)[:0] and must return it with PutBuffer once
// nothing aliases it.
func GetBuffer() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuffer returns a GetBuffer buffer to the pool. Callers must be
// sure no decoded view (BatchResult.Payload, BatchEntry fields) still
// aliases it.
func PutBuffer(buf *[]byte) { bufPool.Put(buf) }

// replyPool recycles replica reply bodies apart from bufPool, whose small
// buffers would all grow to reply size. A reply's payloads alias it, so
// only the front-end's frame routine (serve.ServeBatchFrame) returns one,
// after copying them out; a body nobody returns goes to the GC.
var replyPool = sync.Pool{New: func() any { return new([]byte) }}

// GetReplyBuffer takes a reply-body buffer from its pool.
func GetReplyBuffer() *[]byte { return replyPool.Get().(*[]byte) }

// PutReplyBuffer returns a reply body nothing aliases any more to its
// pool, unless it is over 64 KiB (a rare sweep wave's: not worth pinning).
func PutReplyBuffer(buf *[]byte) {
	if cap(*buf) <= 64<<10 {
		replyPool.Put(buf)
	}
}

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

// AppendBatchHeader opens a request frame of n entries, for callers that
// append the entries themselves with AppendBatchEntry.
func AppendBatchHeader(dst []byte, n int) []byte {
	dst = append(dst, BatchRequestMagic...)
	dst = append(dst, BatchVersion)
	return appendUvarint(dst, uint64(n))
}

// AppendBatchEntry appends one request entry whose params run — the
// assignment count, then each "name=value" length-prefixed — is already
// in frame form (BatchWalker.Run).
func AppendBatchEntry(dst []byte, id string, class admit.Class, run []byte) []byte {
	dst = appendUvarint(dst, uint64(len(id)))
	dst = append(dst, id...)
	dst = append(dst, byte(class))
	return append(dst, run...)
}

// AppendBatchRequest appends the request frame for entries to dst and
// returns the extended slice.
func AppendBatchRequest(dst []byte, entries []BatchEntry) []byte {
	dst = AppendBatchHeader(dst, len(entries))
	for _, e := range entries {
		dst = appendUvarint(AppendBatchEntry(dst, e.ID, e.Class, nil), uint64(len(e.Params)))
		for _, p := range e.Params {
			dst = appendUvarint(dst, uint64(len(p)))
			dst = append(dst, p...)
		}
	}
	return dst
}

// AppendBatchResponse appends the response frame for results to dst and
// returns the extended slice.
func AppendBatchResponse(dst []byte, results []BatchResult) []byte {
	dst = append(dst, BatchResponseMagic...)
	dst = append(dst, BatchVersion)
	dst = appendUvarint(dst, uint64(len(results)))
	for _, r := range results {
		var word byte
		if r.OK {
			word |= batchOK
		}
		if r.CacheHit {
			word |= batchCacheHit
		}
		if r.Shared {
			word |= batchShared
		}
		if !r.OK && r.RetryAfter > 0 {
			word |= batchRetry
		}
		dst = append(dst, word)
		if r.OK {
			dst = appendUvarint(dst, uint64(len(r.Key)))
			dst = append(dst, r.Key...)
			dst = appendUvarint(dst, uint64(len(r.Payload)))
			dst = append(dst, r.Payload...)
		} else {
			dst = appendUvarint(dst, uint64(r.Status))
			dst = appendUvarint(dst, uint64(len(r.Msg)))
			dst = append(dst, r.Msg...)
			if word&batchRetry != 0 {
				// Rounded up, so the whole-second Retry-After a front-end
				// derives from it is the one the replica would have sent.
				dst = appendUvarint(dst, uint64((r.RetryAfter+time.Millisecond-1)/time.Millisecond))
			}
		}
	}
	return dst
}

// frameReader walks one frame with clamped reads.
type frameReader struct {
	buf []byte
	off int
}

func (fr *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(fr.buf[fr.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrBatchFrame, fr.off)
	}
	fr.off += n
	return v, nil
}

// chunk reads one length-prefixed byte run, clamping the claimed length
// against the bytes actually remaining before touching them.
func (fr *frameReader) chunk() ([]byte, error) {
	n, err := fr.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(fr.buf)-fr.off) {
		return nil, fmt.Errorf("%w: truncated chunk at offset %d", ErrBatchFrame, fr.off)
	}
	c := fr.buf[fr.off : fr.off+int(n)]
	fr.off += int(n)
	return c, nil
}

func (fr *frameReader) byte() (byte, error) {
	if fr.off >= len(fr.buf) {
		return 0, fmt.Errorf("%w: truncated at offset %d", ErrBatchFrame, fr.off)
	}
	b := fr.buf[fr.off]
	fr.off++
	return b, nil
}

// header checks the magic + version prologue and the entry count.
func (fr *frameReader) header(magic string) (int, error) {
	if len(fr.buf) < len(magic)+1 || string(fr.buf[:len(magic)]) != magic {
		return 0, fmt.Errorf("%w: missing %s magic", ErrBatchFrame, magic)
	}
	if v := fr.buf[len(magic)]; v != BatchVersion {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBatchFrame, v)
	}
	fr.off = len(magic) + 1
	count, err := fr.uvarint()
	if err != nil {
		return 0, err
	}
	if count > MaxBatchEntries {
		return 0, fmt.Errorf("%w: %d entries exceeds the %d cap", ErrBatchFrame, count, MaxBatchEntries)
	}
	return int(count), nil
}

// params reads one params run (a uvarint count, then that many chunks) and
// returns a view of it; a non-nil into also receives the chunks as strings.
func (fr *frameReader) params(entry int, into *[]string) ([]byte, error) {
	start := fr.off
	np, err := fr.uvarint()
	if err != nil {
		return nil, err
	}
	if np > uint64(len(fr.buf)-fr.off) { // each param costs >= 1 byte
		return nil, fmt.Errorf("%w: entry %d: truncated params", ErrBatchFrame, entry)
	}
	if into != nil && np > 0 {
		*into = make([]string, 0, np)
	}
	for j := uint64(0); j < np; j++ {
		p, err := fr.chunk()
		if err != nil {
			return nil, err
		}
		if into != nil {
			*into = append(*into, string(p))
		}
	}
	return fr.buf[start:fr.off], nil
}

// frameWalk is what the two frame walkers share: a frame is walked entry
// by entry without copying, and is only known good once Next has returned
// false with Err nil.
type frameWalk struct {
	fr   frameReader
	n, i int
	// Err is the error that ended the walk, nil for a frame walked to its end.
	Err error
}

// walk checks buf's prologue: magic, version and entry count.
func (w *frameWalk) walk(buf []byte, magic string) (err error) {
	w.fr.buf = buf
	w.n, err = w.fr.header(magic)
	return err
}

// Len is the frame's entry count clamped by what its remaining bytes could
// encode (an entry is at least three bytes), so a hostile count cannot
// pre-allocate ahead of the data backing it.
func (w *frameWalk) Len() int { return min(w.n, (len(w.fr.buf)-w.fr.off)/3) }

// more reports whether an entry is left to read: none after an error, or
// after the last one, where bytes left over become the error.
func (w *frameWalk) more() bool {
	if rest := len(w.fr.buf) - w.fr.off; w.Err == nil && w.i == w.n && rest != 0 {
		w.Err = fmt.Errorf("%w: %d trailing bytes after %d entries", ErrBatchFrame, rest, w.n)
	}
	return w.Err == nil && w.i < w.n
}

// BatchWalker walks a request frame; DecodeBatchRequest is built on it, so
// both reject the same frames.
type BatchWalker struct {
	frameWalk
	into *[]string // DecodeBatchRequest's: also receives each entry's assignments
	// ID, Class and Run are the current entry after Next; ID and Run alias
	// the frame, Run being the params run as it sits there (AppendBatchEntry).
	ID    []byte
	Class admit.Class
	Run   []byte
}

// WalkBatchRequest checks a request frame's prologue and returns its walker.
func WalkBatchRequest(buf []byte) (w BatchWalker, err error) {
	err = w.walk(buf, BatchRequestMagic)
	return w, err
}

// Next advances to the next entry, reporting false at the end of the
// frame or at the first malformed byte (Err tells which).
func (w *BatchWalker) Next() bool {
	if !w.more() {
		return false
	}
	w.Err = w.entry()
	w.i++
	return w.Err == nil
}

func (w *BatchWalker) entry() (err error) {
	var cb byte
	if w.ID, err = w.fr.chunk(); err == nil {
		cb, err = w.fr.byte()
	}
	if err == nil && int(cb) >= len(admit.Classes()) {
		return fmt.Errorf("%w: entry %d: unknown class byte %d", ErrBatchFrame, w.i, cb)
	}
	if err == nil {
		w.Class = admit.Class(cb)
		w.Run, err = w.fr.params(w.i, w.into)
	}
	return err
}

// ParamsOfRun copies a params run's assignments out as strings (nil for
// an empty run).
func ParamsOfRun(run []byte) (params []string, err error) {
	fr := frameReader{buf: run}
	if _, err = fr.params(0, &params); err == nil && fr.off != len(run) {
		err = fmt.Errorf("%w: %d trailing bytes after params", ErrBatchFrame, len(run)-fr.off)
	}
	return params, err
}

// DecodeBatchRequest parses a request frame. Decoded strings are copies;
// the input buffer may be reused (pooled) once the call returns.
func DecodeBatchRequest(buf []byte) ([]BatchEntry, error) {
	w, err := WalkBatchRequest(buf)
	if err != nil {
		return nil, err
	}
	entries := make([]BatchEntry, 0, w.Len())
	var params []string
	w.into = &params
	for w.Next() {
		entries = append(entries, BatchEntry{ID: string(w.ID), Class: w.Class, Params: params})
		params = nil
	}
	if w.Err != nil {
		return nil, w.Err
	}
	return entries, nil
}

// ResponseWalker is BatchWalker's twin for a response frame, and
// DecodeBatchResponse is built on it. After Next its fields are the
// current entry's BatchResult, Key, Payload and Msg aliasing the frame.
type ResponseWalker struct {
	frameWalk
	OK, CacheHit, Shared bool
	Key, Payload         []byte
	Status               int
	Msg                  []byte
	RetryAfter           time.Duration
}

// WalkBatchResponse checks a response frame's prologue and returns its walker.
func WalkBatchResponse(buf []byte) (w ResponseWalker, err error) {
	err = w.walk(buf, BatchResponseMagic)
	return w, err
}

// Next is BatchWalker.Next for a response entry.
func (w *ResponseWalker) Next() bool {
	if !w.more() {
		return false
	}
	w.Err = w.entry()
	w.i++
	return w.Err == nil
}

// entry reads the outcome word and the fields it announces.
func (w *ResponseWalker) entry() error {
	word, err := w.fr.byte()
	if err != nil {
		return err
	}
	w.OK, w.CacheHit, w.Shared = word&batchOK != 0, word&batchCacheHit != 0, word&batchShared != 0
	w.Key, w.Payload, w.Status, w.Msg, w.RetryAfter = nil, nil, 0, nil, 0
	if w.OK {
		if word&batchRetry != 0 {
			return fmt.Errorf("%w: entry %d: retry hint on an OK entry", ErrBatchFrame, w.i)
		}
		if w.Key, err = w.fr.chunk(); err == nil {
			w.Payload, err = w.fr.chunk()
		}
		return err
	}
	status, err := w.fr.uvarint()
	if err != nil {
		return err
	}
	if status < 400 || status > 599 {
		return fmt.Errorf("%w: entry %d: error status %d outside 400..599", ErrBatchFrame, w.i, status)
	}
	w.Status = int(status)
	if w.Msg, err = w.fr.chunk(); err != nil || word&batchRetry == 0 {
		return err
	}
	if ms, err := w.fr.uvarint(); err == nil && ms <= math.MaxInt64/uint64(time.Millisecond) {
		w.RetryAfter = time.Duration(ms) * time.Millisecond
		return nil
	}
	return fmt.Errorf("%w: entry %d: bad retry hint", ErrBatchFrame, w.i)
}

// DecodeBatchResponse parses a response frame. Key and Msg are copies;
// Payload aliases buf, so buf must outlive every use of the results.
func DecodeBatchResponse(buf []byte) ([]BatchResult, error) {
	w, err := WalkBatchResponse(buf)
	if err != nil {
		return nil, err
	}
	results := make([]BatchResult, 0, w.Len())
	for w.Next() {
		results = append(results, BatchResult{OK: w.OK, CacheHit: w.CacheHit, Shared: w.Shared,
			Key: string(w.Key), Payload: w.Payload, Status: w.Status, Msg: string(w.Msg), RetryAfter: w.RetryAfter})
	}
	if w.Err != nil {
		return nil, w.Err
	}
	return results, nil
}
