package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/httpapi"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// listener is one http.Server on a 127.0.0.1:0 socket, served from a
// goroutine that close waits for.
type listener struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{
		srv:  &http.Server{Handler: h},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for the serving goroutine. The
// clients have all returned by now, so nothing is in flight; what can
// linger is a connection a transport dialled but never used, which
// Shutdown does not count as idle until it is five seconds old. Those are
// closed outright after a short grace.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		err = l.srv.Close()
	}
	if serr := <-l.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// engineStack is what arch21d serves in engine mode: the engine's
// handler with POST /sweep mounted beside it, on a real socket.
type engineStack struct {
	eng *serve.Engine
	ln  *listener
}

// newEngineStack boots one engine daemon's handler stack. A non-nil
// tracer installs the replica-level middleware and the timing runner.
func newEngineStack(cfg serve.Config, tr *tracer) (*engineStack, error) {
	if tr != nil {
		cfg.RunnerWith = tr.runner
	}
	eng := serve.NewEngine(cfg)
	mux := http.NewServeMux()
	mux.Handle("/", eng.Handler())
	httpapi.Mount(mux, "POST /sweep", sweep.Handler(eng))
	var h http.Handler = mux
	if tr != nil {
		h = tr.middleware(spReplica, h)
	}
	ln, err := listen(h)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &engineStack{eng: eng, ln: ln}, nil
}

func (s *engineStack) close() error {
	err := s.ln.close()
	s.eng.Close()
	return err
}

// clusterStack is what arch21d -peers serves: a router front-end over
// HTTPBackends, each pointing at a replica engineStack.
type clusterStack struct {
	replicas []*engineStack
	rt       *router.Router
	front    *listener
}

const replicaCount = 3

func newClusterStack(tr *tracer) (*clusterStack, error) {
	c := &clusterStack{}
	var backends []router.Backend
	for i := 0; i < replicaCount; i++ {
		rep, err := newEngineStack(serve.Config{}, tr)
		if err != nil {
			c.close()
			return nil, err
		}
		c.replicas = append(c.replicas, rep)
		hb := router.NewHTTPBackend(rep.ln.url)
		if tr != nil {
			backends = append(backends, &tracedBackend{HTTPBackend: hb, t: tr})
		} else {
			backends = append(backends, hb)
		}
	}
	rt, err := router.New(backends, router.Config{})
	if err != nil {
		c.close()
		return nil, err
	}
	c.rt = rt
	mux := http.NewServeMux()
	mux.Handle("/", rt.Handler())
	httpapi.Mount(mux, "POST /sweep", sweep.Handler(rt))
	var h http.Handler = mux
	if tr != nil {
		h = tr.middleware(spFrontend, h)
	}
	if c.front, err = listen(h); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// close shuts the front-end first, so nothing is routing when the
// replicas go; shutting a replica's server closes the keep-alive
// connections HTTPBackend's private transport holds to it.
func (c *clusterStack) close() error {
	var err error
	if c.front != nil {
		err = c.front.close()
	}
	for _, r := range c.replicas {
		if rerr := r.close(); err == nil {
			err = rerr
		}
	}
	return err
}

func (c *clusterStack) engines() []*serve.Engine {
	out := make([]*serve.Engine, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = r.eng
	}
	return out
}
