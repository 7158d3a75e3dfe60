package serve

// The replica end of the stream carrier (wire contract in
// internal/httpapi/stream.go): GET /stream upgrades the connection, after
// which request messages are answered by id through one routine: the
// reader parses each frame once and serves its hits itself, and only a
// frame's misses get a goroutine, so a slow miss never holds up a warm
// hit queued behind it.

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
			if !s.request(ctx, id, in, sem) {
				<-sem
			}
		default:
			return
		}
	}
}

// request serves one request message, the body in buf. The envelope and
// frame are parsed once, here on the reader, and the frame's hit pass runs
// here too: a frame that is all hits (or does not parse) is answered on
// the spot, with no context, cancel entry or goroutine. A frame with
// misses registers its cancel and hands its misses, with the parsed
// scratch, to a goroutine that serves them under the envelope's context,
// answers, and frees the frame's slot in sem — so a slow miss never holds
// up a warm hit queued behind it. It reports whether it started one.
func (s *replicaStream) request(ctx context.Context, id uint32, buf *[]byte, sem chan struct{}) bool {
	env, frame, err := httpapi.ParseStreamRequest(*buf)
	var fs *frameScratch
	if err == nil {
		fs, err = parseFrame(frame)
	}
	if err != nil {
		s.reply(id, buf, nil, err)
		return false
	}
	tb, t0 := s.e.tenantBookOf(env.Tenant), s.e.now()
	if fs.outs, fs.misses = s.e.hitPass(tb, t0, fs.items, fs.outs, fs.misses); len(fs.misses) == 0 {
		s.reply(id, buf, fs, nil)
		return false
	}
	fctx, fcancel := context.WithCancel(ctx)
	s.mu.Lock()
	s.cancels[id] = fcancel
	s.mu.Unlock()
	s.frames.Add(1)
	go func() {
		defer s.frames.Done()
		ectx, cancel := env.Context(fctx)
		s.e.serveMisses(ectx, tb, t0, fs.items, fs.outs, fs.misses)
		cancel()
		s.reply(id, buf, fs, nil)
		s.mu.Lock()
		delete(s.cancels, id)
		s.mu.Unlock()
		fcancel()
		<-sem
	}()
	return true
}

// reply answers message id with fs's response frame (and releases fs),
// or with err as a whole-frame error, built in buf's storage over the body
// parseFrame has read in full, the header written last into the room left
// at the front; buf goes back to its pool.
func (s *replicaStream) reply(id uint32, buf *[]byte, fs *frameScratch, err error) {
	const hdr = httpapi.StreamHeaderLen
	msg, kind := slices.Grow((*buf)[:0], hdr)[:hdr], httpapi.StreamReply
	if err != nil {
		msg, kind = httpapi.AppendStreamError(msg, http.StatusBadRequest, err.Error()), httpapi.StreamError
	} else {
		msg = fs.appendResponse(msg, http.StatusInternalServerError)
		fs.release()
	}
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
