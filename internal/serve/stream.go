package serve

// The replica end of the stream carrier (wire contract in
// internal/httpapi/stream.go): GET /stream upgrades the connection, after
// which request messages are served through the frame routine POST /batch
// uses and answered by id: a frame of one that hits on the reader itself,
// any other on a goroutine of its own, so a slow miss never holds up a
// warm hit queued behind it.

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/httpapi"
)

// streamMaxInflight bounds the frames one connection serves at once. At
// the cap the reader stops reading, so the sender meets TCP back-pressure
// instead of the replica growing goroutines without bound.
const streamMaxInflight = 64

// streamSet is the engine's live stream connections. http.Server.Shutdown
// neither waits for nor closes hijacked connections, so Engine.Close ends
// them here.
type streamSet struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // one per connection handler
}

// close ends every live stream and waits for the handlers (and the frames
// they are serving, which see their contexts canceled) to return.
func (s *streamSet) close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// replicaStream is one upgraded connection.
type replicaStream struct {
	e      *Engine
	conn   net.Conn
	wmu    sync.Mutex // one reply on the wire at a time
	frames sync.WaitGroup

	mu      sync.Mutex
	cancels map[uint32]context.CancelFunc // in-flight requests by id
}

// handleStream is GET /stream. A request that does not ask for the
// upgrade, or a ResponseWriter that cannot be hijacked, answers 426; a
// closing engine drops the connection. The front-end's dialer treats
// either as a transport failure.
func (e *Engine) handleStream(w http.ResponseWriter, r *http.Request) {
	hj, ok := w.(http.Hijacker)
	if !ok || !strings.EqualFold(r.Header.Get("Upgrade"), httpapi.StreamProtocol) {
		httpapi.WriteError(w, http.StatusUpgradeRequired, httpapi.CodeBadRequest,
			"GET /stream serves only the "+httpapi.StreamProtocol+" upgrade")
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, err.Error())
		return
	}
	defer conn.Close()
	set := &e.streams
	set.mu.Lock()
	if set.closed {
		set.mu.Unlock()
		return
	}
	if set.conns == nil {
		set.conns = make(map[net.Conn]struct{})
	}
	set.conns[conn] = struct{}{}
	set.wg.Add(1)
	set.mu.Unlock()
	defer func() {
		set.mu.Lock()
		delete(set.conns, conn)
		set.mu.Unlock()
		set.wg.Done()
	}()
	// http.Hijacker leaves clearing the server's ReadTimeout/WriteTimeout
	// deadlines to the caller; the stream must outlive them.
	_ = conn.SetDeadline(time.Time{})
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+
		httpapi.StreamProtocol+"\r\n\r\n"); err != nil {
		return
	}
	s := &replicaStream{e: e, conn: conn, cancels: make(map[uint32]context.CancelFunc)}
	s.serve(bufio.NewReaderSize(brw.Reader, 16<<10))
}

// serve reads messages until the connection ends or the peer breaks the
// protocol, then cancels what is in flight and waits for it.
func (s *replicaStream) serve(br *bufio.Reader) {
	ctx, cancel := context.WithCancel(context.Background())
	defer s.frames.Wait()
	defer cancel()
	sem := make(chan struct{}, streamMaxInflight)
	for {
		sem <- struct{}{} // before reading: at the cap the reader stops reading
		id, kind, in, err := httpapi.ReadStreamMessage(br, httpapi.MaxBatchBytes, httpapi.GetBuffer)
		switch {
		case err != nil:
			return
		case kind == httpapi.StreamCancel && len(*in) == 0:
			httpapi.PutBuffer(in)
			s.mu.Lock()
			if c := s.cancels[id]; c != nil {
				c()
			}
			s.mu.Unlock()
			<-sem
		case kind == httpapi.StreamRequest:
			if s.answerHit(id, in) {
				<-sem
				continue
			}
			fctx, fcancel := context.WithCancel(ctx)
			s.mu.Lock()
			s.cancels[id] = fcancel
			s.mu.Unlock()
			s.frames.Add(1)
			go func() {
				defer s.frames.Done()
				s.serveFrame(fctx, id, in)
				s.mu.Lock()
				delete(s.cancels, id)
				s.mu.Unlock()
				fcancel()
				<-sem
			}()
		default:
			return
		}
	}
}

// answerHit answers on the reader a request message, the body in buf,
// whose frame is one entry that hits (batchHit), and reports whether it
// did: no context, cancel entry or goroutine. Anything else goes to
// serveFrame, which parses it again: batchHit books nothing on a miss,
// and a miss's own execution dwarfs the second parse.
func (s *replicaStream) answerHit(id uint32, buf *[]byte) bool {
	env, frame, err := httpapi.ParseStreamRequest(*buf)
	if err != nil {
		return false
	}
	if w, err := httpapi.WalkBatchRequest(frame); err != nil || w.Len() != 1 {
		return false
	}
	fs, err := parseFrame(frame)
	if err != nil {
		return false
	}
	defer fs.release()
	if len(fs.items) != 1 || fs.items[0].Ident.err != nil {
		return false
	}
	it := &fs.items[0]
	fs.outs = append(fs.outs[:0], BatchOutcome{})
	if !s.e.batchHit(s.e.tenantBookOf(env.Tenant), it, it.Ident.key, it.Ident.params, s.e.now(), &fs.outs[0]) {
		return false
	}
	const hdr = httpapi.StreamHeaderLen
	s.send(id, httpapi.StreamReply, buf, fs.appendResponse(slices.Grow((*buf)[:0], hdr)[:hdr], http.StatusInternalServerError))
	return true
}

// serveFrame serves one request message, the body in buf, and writes its
// reply from the same pooled buffer, over the body: ServeBatchFrame has
// read all of the frame before it appends, and the header goes in last.
func (s *replicaStream) serveFrame(ctx context.Context, id uint32, buf *[]byte) {
	const hdr = httpapi.StreamHeaderLen
	kind := httpapi.StreamReply
	env, frame, err := httpapi.ParseStreamRequest(*buf)
	msg := slices.Grow((*buf)[:0], hdr)[:hdr] // the header's room: the body's first bytes, written last
	if err == nil {
		ectx, cancel := env.Context(ctx)
		msg, err = ServeBatchFrame(ectx, frame, msg, s.e.ServeEncodedBatchInto, http.StatusInternalServerError)
		cancel()
	}
	if err != nil {
		kind = httpapi.StreamError
		msg = httpapi.AppendStreamError(msg[:hdr], http.StatusBadRequest, err.Error())
	}
	s.send(id, kind, buf, msg)
}

// send writes msg, built in buf's storage with the header's room in
// front, as message id of kind, and gives buf back to its pool.
func (s *replicaStream) send(id uint32, kind byte, buf *[]byte, msg []byte) {
	defer httpapi.PutBuffer(buf)
	httpapi.PutStreamHeader(msg, id, kind)
	*buf = msg
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_ = s.conn.SetWriteDeadline(time.Now().Add(httpapi.StreamWriteTimeout))
	if _, err := s.conn.Write(msg); err != nil {
		// A reply cut short leaves the peer unable to find the next
		// header: end the connection, which the reader above observes.
		_ = s.conn.Close()
	}
}
