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
	"strings"
	"sync"
	"time"

	"repro/internal/httpapi"
)

// streamDialTimeout bounds the dial plus the upgrade handshake.
const streamDialTimeout = 5 * time.Second

// streamReply is what the reader hands a waiter: a pooled reply body, the
// waiter's from then on, or the error the replica answered the frame with
// or that killed the connection.
type streamReply struct {
	body *[]byte
	err  error
}

// streamConn is one live stream. Any read or write failure ends it
// through fail, which fails every waiter once.
type streamConn struct {
	conn net.Conn
	wmu  sync.Mutex // one message on the wire at a time

	mu      sync.Mutex
	waiters map[uint32]chan streamReply // capacity 1 each: the reader never blocks
	next    uint32
	err     error // set once, when the stream dies
}

// streamFor returns the backend's live stream, dialling it when there is
// none or the last one died. The stream is the one carrier: a base that
// is not plain http://, a dial error, an upgrade answered anything but
// 101 or a bad handshake is a transport failure for the caller to report
// — a plain error, never the replica's status, so the router fails the
// frame over and counts it toward ejection — and the next call dials
// again.
func (b *HTTPBackend) streamFor(ctx context.Context) (*streamConn, error) {
	b.smu.Lock()
	defer b.smu.Unlock()
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
	br := bufio.NewReaderSize(conn, 16<<10)
	var resp *http.Response
	if err = req.Write(conn); err == nil {
		resp, err = http.ReadResponse(br, req)
	}
	switch {
	case err != nil:
	case resp.StatusCode == http.StatusSwitchingProtocols &&
		strings.EqualFold(resp.Header.Get("Upgrade"), httpapi.StreamProtocol):
		_ = conn.SetDeadline(time.Time{})
		sc := &streamConn{conn: conn, waiters: make(map[uint32]chan streamReply)}
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

// send writes one whole message under the write lock and a write
// deadline — ctx's, at most StreamWriteTimeout — so a peer that stops
// reading cannot hold the lock past the caller's patience. A failed write
// leaves the peer mid-message: it ends the stream. A ctx already over
// when the lock is won writes nothing.
func (sc *streamConn) send(ctx context.Context, msg []byte) error {
	dl := time.Now().Add(httpapi.StreamWriteTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	_ = sc.conn.SetWriteDeadline(dl)
	_, err := sc.conn.Write(msg)
	if err != nil {
		sc.fail(err)
	}
	return err
}

// exchange sends one request — msg with StreamHeaderLen bytes reserved in
// front of its body — and waits for the reply body. A caller whose ctx
// ends sends a cancel message instead of tearing the connection down (a
// reply already on its way then goes to the GC with the channel).
func (sc *streamConn) exchange(ctx context.Context, msg []byte) (*[]byte, error) {
	ch := make(chan streamReply, 1)
	sc.mu.Lock()
	if sc.err != nil {
		sc.mu.Unlock()
		return nil, sc.err
	}
	sc.next++
	id := sc.next
	sc.waiters[id] = ch
	sc.mu.Unlock()
	httpapi.PutStreamHeader(msg, id, httpapi.StreamRequest)
	if err := sc.send(ctx, msg); err != nil {
		sc.take(id)
		return nil, err
	}
	select {
	case r := <-ch:
		return r.body, r.err
	case <-ctx.Done():
		if sc.take(id) != nil {
			var cancel [httpapi.StreamHeaderLen]byte
			httpapi.PutStreamHeader(cancel[:], id, httpapi.StreamCancel)
			_ = sc.send(context.Background(), cancel[:])
		}
		return nil, ctx.Err()
	}
}
