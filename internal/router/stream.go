package router

// The front-end end of the stream carrier (wire contract in
// internal/httpapi/stream.go): HTTPBackend keeps one upgraded connection
// per replica, dialled lazily on the first DoBatch, and pipelines batch
// frames over it — a write under the connection's write lock, then a wait
// on the reply the reader goroutine demultiplexes by id.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/httpapi"
)

// streamDialTimeout bounds the dial plus the upgrade handshake.
const streamDialTimeout = 5 * time.Second

// writeSlice is how long a blocked write runs between looks at its context.
const writeSlice = 50 * time.Millisecond

// ctxLock is a mutex whose lock gives up when the caller's context ends.
type ctxLock chan struct{}

func (l ctxLock) lock(ctx context.Context) error {
	select {
	case l <- struct{}{}: // uncontended: the cheap non-blocking send
		return nil
	default:
	}
	select {
	case l <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (l ctxLock) unlock() { <-l }

// streamReply is what the reader hands a waiter: a pooled reply body, the
// waiter's from then on, or the error the replica answered the frame with
// or that killed the connection.
type streamReply struct {
	body *[]byte
	err  error
}

// replyChans pools the waiters' channels, of capacity 1 so the reader
// never blocks. A waiter that lost take drains its one reply first.
var replyChans = sync.Pool{New: func() any { return make(chan streamReply, 1) }}

// streamConn is one live stream. Any read or write failure ends it
// through fail, which fails every waiter once.
type streamConn struct {
	conn  net.Conn
	wlock ctxLock // one message on the wire at a time

	mu      sync.Mutex
	waiters map[uint32]chan streamReply
	next    uint32
	err     error // set once, when the stream dies
}

// streamFor returns the backend's live stream, dialling it when there is
// none or the last one died. The stream is the one carrier: a base that
// is not plain http://, a dial error, an upgrade answered anything but
// 101 or a bad handshake is a transport failure for the caller to report
// — a plain error, never the replica's status, so the router fails the
// frame over and counts it toward ejection — and the next call dials
// again. A caller whose ctx ends stops waiting for another's dial, and
// cuts its own dial and handshake.
func (b *HTTPBackend) streamFor(ctx context.Context) (*streamConn, error) {
	if err := b.smu.lock(ctx); err != nil {
		return nil, err
	}
	defer b.smu.unlock()
	if sc := b.stream; sc != nil {
		sc.mu.Lock()
		dead := sc.err != nil
		sc.mu.Unlock()
		if !dead {
			return sc, nil
		}
	}
	req, err := http.NewRequest(http.MethodGet, b.base+"/v1/stream", nil)
	if err != nil {
		return nil, err
	}
	if req.URL.Scheme != "http" {
		return nil, fmt.Errorf("the frame stream runs over plain http://, not %s://", req.URL.Scheme)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", httpapi.StreamProtocol)
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr += ":80"
	}
	conn, err := (&net.Dialer{Timeout: streamDialTimeout}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(streamDialTimeout))
	cut := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
	br := bufio.NewReaderSize(conn, 16<<10)
	var resp *http.Response
	if err = req.Write(conn); err == nil {
		resp, err = http.ReadResponse(br, req)
	}
	if !cut() && err == nil { // ctx ended as the handshake finished, its deadline now past
		err = ctx.Err()
	}
	switch {
	case err != nil:
	case resp.StatusCode == http.StatusSwitchingProtocols &&
		strings.EqualFold(resp.Header.Get("Upgrade"), httpapi.StreamProtocol):
		_ = conn.SetDeadline(time.Time{})
		sc := &streamConn{conn: conn, wlock: make(ctxLock, 1), waiters: make(map[uint32]chan streamReply)}
		if b.stream != nil {
			b.redials.Add(1)
		}
		b.stream = sc
		go sc.readLoop(br)
		return sc, nil
	default:
		err = fmt.Errorf("stream upgrade answered HTTP %d, not 101 %s", resp.StatusCode, httpapi.StreamProtocol)
	}
	_ = conn.Close()
	return nil, err
}

// readLoop demultiplexes replies to their waiters until the connection
// ends — on the replica's close as well, so no Close call is needed to
// reclaim it.
func (sc *streamConn) readLoop(br *bufio.Reader) {
	for {
		// A reply goes to its waiter in a pooled body whose ownership rule
		// HTTPBackend.DoBatch states; an error body, or a reply whose caller
		// has left, goes back at once: nothing aliases it.
		id, kind, rb, err := httpapi.ReadStreamMessage(br, httpapi.MaxStreamReplyBytes, httpapi.GetReplyBuffer)
		if err == nil && kind != httpapi.StreamReply && kind != httpapi.StreamError {
			err = fmt.Errorf("%w: kind %d from a replica", httpapi.ErrStreamMessage, kind)
		}
		if err != nil {
			sc.fail(err)
			return
		}
		r := streamReply{body: rb}
		if kind == httpapi.StreamError {
			status, msg, perr := httpapi.ParseStreamError(*rb)
			if r.err = perr; perr == nil {
				r.err = replicaError(status, msg, 0)
			}
			r.body = nil
			httpapi.PutReplyBuffer(rb)
		}
		if ch := sc.take(id); ch != nil {
			ch <- r
		} else if r.body != nil { // a canceled caller has already left
			httpapi.PutReplyBuffer(rb)
		}
	}
}

// take withdraws request id's waiter; nil when the reader, fail or the
// waiter itself already took it.
func (sc *streamConn) take(id uint32) chan streamReply {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	ch := sc.waiters[id]
	delete(sc.waiters, id)
	return ch
}

// fail ends the stream: the first call records err, closes the
// connection and fails every waiter; later calls do nothing.
func (sc *streamConn) fail(err error) {
	if errors.Is(err, io.EOF) {
		err = errors.New("stream closed by the replica")
	}
	sc.mu.Lock()
	if sc.err != nil {
		sc.mu.Unlock()
		return
	}
	sc.err = err
	waiters := sc.waiters
	sc.waiters = nil
	sc.mu.Unlock()
	_ = sc.conn.Close()
	for _, ch := range waiters {
		ch <- streamReply{err: err}
	}
}

// send writes one whole message under the write lock, in deadline slices
// of writeSlice up to ctx's deadline or StreamWriteTimeout, so neither
// the wait for the lock nor a write the peer does not drain outlasts ctx.
// A ctx already over when the lock is won writes nothing. A write that
// fails or is cut short leaves the peer mid-message: it ends the stream.
func (sc *streamConn) send(ctx context.Context, msg []byte) error {
	if err := sc.wlock.lock(ctx); err != nil {
		return err
	}
	defer sc.wlock.unlock()
	now := time.Now()
	end := now.Add(httpapi.StreamWriteTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(end) {
		end = d
	}
	whole := len(msg)
	for ; ctx.Err() == nil; now = time.Now() {
		dl := now.Add(writeSlice)
		if dl.After(end) {
			dl = end
		}
		_ = sc.conn.SetWriteDeadline(dl)
		n, err := sc.conn.Write(msg)
		switch msg = msg[n:]; {
		case err == nil:
			return nil
		case dl.Equal(end) || !errors.Is(err, os.ErrDeadlineExceeded): // not a slice's end
			sc.fail(err)
			return err
		}
	}
	if len(msg) < whole {
		sc.fail(fmt.Errorf("stream write cut short: %v", ctx.Err()))
	}
	return ctx.Err()
}

// sendCancel asks the replica to stop request id, whose caller has left.
// It runs on a goroutine of its own, because the write lock's queue, or a
// replica that has stopped reading, may hold it for up to
// StreamWriteTimeout, and the caller returns once its context ends.
func (sc *streamConn) sendCancel(id uint32) {
	var msg [httpapi.StreamHeaderLen]byte
	httpapi.PutStreamHeader(msg[:], id, httpapi.StreamCancel)
	_ = sc.send(context.Background(), msg[:])
}

// exchange sends one request — msg with StreamHeaderLen bytes reserved in
// front of its body — and waits for the reply body. A caller whose ctx
// ends leaves a cancel message to be sent (sendCancel) instead of tearing
// the connection down.
func (sc *streamConn) exchange(ctx context.Context, msg []byte) (*[]byte, error) {
	ch := replyChans.Get().(chan streamReply)
	sc.mu.Lock()
	if err := sc.err; err != nil {
		sc.mu.Unlock()
		replyChans.Put(ch)
		return nil, err
	}
	sc.next++
	id := sc.next
	sc.waiters[id] = ch
	sc.mu.Unlock()
	httpapi.PutStreamHeader(msg, id, httpapi.StreamRequest)
	err := sc.send(ctx, msg)
	sent := err == nil
	if sent {
		select {
		case r := <-ch:
			replyChans.Put(ch)
			return r.body, r.err
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	if sc.take(id) == nil { // the reader or fail took it first: drain the one reply owed
		if r := <-ch; r.body != nil {
			httpapi.PutReplyBuffer(r.body)
		}
	} else if sent { // the replica has the request: ask it to stop
		go sc.sendCancel(id)
	}
	replyChans.Put(ch)
	return nil, err
}
