// Command arch21d serves the toolkit's experiments over HTTP through the
// concurrent serving engine: sharded memoizing result cache (parameter
// assignments folded into cache keys), singleflight deduplication, a
// class-based QoS admission scheduler (interactive /run traffic served
// strictly ahead of batch sweep points, with a token-bucket batch
// throttle and deadline-aware shedding), and self-reported per-class
// tail latency. Parameter sweeps fan grids out over the same engine as
// batch class and stream NDJSON; a dropped stream cancels queued AND
// in-flight grid points.
//
// With -peers, arch21d runs as a consistent-hash routing front-end
// instead: requests (and every sweep grid point) route to the replica
// owning their cache key — class and remaining deadline budget propagate
// in the X-Arch21-Class / X-Arch21-Deadline-MS headers — with
// health-checked ejection and bounded failover. With -snapshot, the
// engine persists its cache to disk (tier 2) and warm-starts from it on
// boot. With -lc-slo, a feedback controller retunes the batch throttle
// every second to hold the live interactive p99 at the SLO.
//
// Usage:
//
//	arch21d [-addr :8021] [-shards 16] [-workers 4]
//	        [-snapshot cache.snap] [-snapshot-every 30s]
//	        [-batch-rate 0] [-lc-slo 0] [-events-log events.ndjson]
//	arch21d -peers :8022,:8023,:8024 [-addr :8021] [-events-log events.ndjson]
//
// Either mode takes -pprof ADDR: net/http/pprof on a listener of its own
// (go tool pprof http://ADDR/debug/pprof/profile), never on the API port.
//
// Endpoints:
//
//	GET  /healthz              liveness probe
//	GET  /experiments          registered experiments: claims + param schemas
//	GET  /run/{id}             serve one experiment (add ?format=text|csv)
//	GET  /run/{id}?param=n=v   override declared parameters (repeatable)
//	POST /sweep                parameter-grid sweep, streamed as NDJSON
//	GET  /stats                request counters, cache stats, per-class
//	                           p50/p99, scheduler + shed counters
//	                           (router mode: routing counters + backend health)
//	GET  /metrics              Prometheus text exposition — both modes
//	GET  /events?since=N       structured control-plane events after cursor N
//	POST /control              live retune: batch_rate, slo_ms;
//	                           the front-end fans it out to every replica
//	                           and reports per-replica acks
//
// Every endpoint is also served under the versioned /v1 prefix
// (GET /v1/run/{id}, POST /v1/sweep, ...); the unversioned paths remain
// as legacy aliases. Error responses on both surfaces are one JSON
// envelope: {"error":{"code","message","retry_after_ms"}}.
//
// Example:
//
//	arch21d -lc-slo 50ms &
//	curl localhost:8021/run/E3
//	curl "localhost:8021/run/E7?param=f=0.99&param=bces=1024"
//	curl -H 'X-Arch21-Class: batch' -H 'X-Arch21-Deadline-MS: 2000' localhost:8021/run/E9
//	curl -d '{"id":"E7","params":["f=0.9:0.99:0.03","bces=64,256"]}' localhost:8021/sweep
//	curl localhost:8021/stats
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/qos"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// openEventsLog opens (appending) the -events-log NDJSON sink; a file
// that cannot be opened is fatal at boot, not silently dropped.
func openEventsLog(path string) *os.File {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		log.Fatalf("arch21d: -events-log: %v", err)
	}
	return f
}

func main() {
	addr := flag.String("addr", ":8021", "listen address")
	shards := flag.Int("shards", 16, "cache shard count (rounded up to a power of two)")
	workers := flag.Int("workers", 4, "max concurrent cold experiment runs")
	cacheBytes := flag.Int64("cache-bytes", 0, "tier-1 cache byte budget across shards (0 = unbounded; bounded shards keep recently-read entries)")
	snapshot := flag.String("snapshot", "", "tier-2 cache snapshot file: warm-start from it on boot, persist to it while serving")
	snapshotEvery := flag.Duration("snapshot-every", 30*time.Second, "background snapshot save interval (0 = only on shutdown)")
	batchRate := flag.Float64("batch-rate", 0, "token-bucket rate for batch-class admissions (grid points/s; 0 = unthrottled)")
	lcSLO := flag.Duration("lc-slo", 0, "interactive p99 SLO: a feedback controller retunes -batch-rate every second to hold it (0 = static rate)")
	eventsLog := flag.String("events-log", "", "append every control-plane event to this file as NDJSON (the in-memory ring serves /events regardless)")
	tenants := flag.String("tenants", "", "comma-separated tenant vocabulary: keep per-tenant books and /metrics families; requests with an unlisted (or no) X-Arch21-Tenant header fold into \"other\"")
	peers := flag.String("peers", "", "comma-separated replica addresses (host:port or http://host:port): run as a consistent-hash routing front-end instead of serving locally")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof under /debug/pprof/ on this address, a listener of its own (empty = none)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "arch21d: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if *pprofAddr != "" {
		// Its own mux on its own listener: the import registers on
		// http.DefaultServeMux, which nothing here serves, so the API
		// port never exposes a profile.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() { log.Fatalf("arch21d: -pprof: %v", http.ListenAndServe(*pprofAddr, pm)) }()
	}

	mux := http.NewServeMux()
	var onShutdown func()

	if *peers != "" {
		// A routing front-end has no local engine: accepting and silently
		// dropping engine flags would let an operator believe they
		// configured a cache that does not exist.
		engineOnly := map[string]bool{"shards": true, "workers": true,
			"cache-bytes": true, "snapshot": true, "snapshot-every": true,
			"batch-rate": true, "lc-slo": true, "tenants": true}
		flag.Visit(func(f *flag.Flag) {
			if engineOnly[f.Name] {
				fmt.Fprintf(os.Stderr, "arch21d: -%s configures the local engine and has no effect with -peers\n", f.Name)
				os.Exit(2)
			}
		})
		var backends []router.Backend
		for _, p := range strings.Split(*peers, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			// The front-end reaches a replica only over its plain-TCP frame
			// stream: a peer it could never reach is a boot error, not a
			// replica ejected at the first request.
			if base := httpapi.BaseURL(p); !strings.HasPrefix(base, "http://") {
				fmt.Fprintf(os.Stderr, "arch21d: -peers %s: a replica is reached over plain http:// only\n", p)
				os.Exit(2)
			}
			backends = append(backends, router.NewHTTPBackend(p))
		}
		rt, err := router.New(backends, router.Config{})
		if err != nil {
			log.Fatalf("arch21d: %v", err)
		}
		if *eventsLog != "" {
			rt.Events().SetSink(openEventsLog(*eventsLog))
		}
		mux.Handle("/", rt.Handler())
		httpapi.Mount(mux, "POST /sweep", sweep.Handler(rt))
		log.Printf("arch21d: routing front-end for %d replicas on %s (peers=%s)",
			len(backends), *addr, *peers)
	} else {
		var vocab []string
		for _, name := range strings.Split(*tenants, ",") {
			if name = strings.TrimSpace(name); name != "" {
				vocab = append(vocab, name)
			}
		}
		engine := serve.NewEngine(serve.Config{
			Shards:       *shards,
			Workers:      *workers,
			CacheBytes:   *cacheBytes,
			BatchRate:    *batchRate,
			SnapshotPath: *snapshot,
			Tenants:      vocab,
		})
		defer engine.Close()
		if *eventsLog != "" {
			engine.Events().SetSink(openEventsLog(*eventsLog))
		}
		mux.Handle("/", engine.Handler())
		httpapi.Mount(mux, "POST /sweep", sweep.Handler(engine))
		if *lcSLO > 0 {
			// The §2.4 feedback loop, live: every second, read the
			// interactive class's p99 over the *last window* (the
			// lifetime reservoir in /stats barely moves once mature, so
			// it would mask both fresh violations and recoveries) and
			// retune the batch token-bucket toward the highest rate that
			// still meets the SLO. Starting rate: the static -batch-rate
			// if given, else an optimistic 256 points/s for the
			// controller to walk down. Every decision lands in the event
			// ring (GET /events) and, with -events-log, the NDJSON file.
			initial := *batchRate
			if initial <= 0 {
				initial = 256
			}
			sup := &qos.Supervisor{
				Ctrl:   qos.NewRateController(lcSLO.Seconds(), initial, 0.1, 1e6),
				Window: func() stats.LatencySnapshot { return engine.TakeClassWindow(admit.Interactive) },
				Apply:  engine.SetBatchRate,
				Events: engine.Events(),
			}
			engine.SetBatchRate(sup.Ctrl.Rate())
			// POST /control's slo_ms knob retunes this controller live.
			engine.OnSLOChange(sup.SetSLO)
			go sup.Run(context.Background())
		}
		if *snapshot != "" {
			if loaded := engine.Metrics().Snapshot.Loaded; loaded > 0 {
				log.Printf("arch21d: warm start: %d entries loaded from %s", loaded, *snapshot)
			}
			if *snapshotEvery > 0 {
				go func() {
					for range time.Tick(*snapshotEvery) {
						if err := engine.SaveSnapshot(); err != nil {
							log.Printf("arch21d: snapshot save: %v", err)
						}
					}
				}()
			}
			onShutdown = func() {
				if err := engine.SaveSnapshot(); err != nil {
					log.Printf("arch21d: final snapshot save: %v", err)
				}
			}
		}
		log.Printf("arch21d: serving %d experiments on %s (shards=%d workers=%d snapshot=%q)",
			len(core.Registry()), *addr, *shards, *workers, *snapshot)
	}

	srv := &http.Server{
		Addr:         *addr,
		Handler:      mux,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 5 * time.Minute, // cold "run all"-class requests and sweeps are slow
	}
	// On SIGINT/SIGTERM, drain in-flight requests first (long sweeps get
	// up to the write timeout to finish streaming), then take the final
	// snapshot — saving after the drain, not during it, so results
	// memoized by the last requests make it into the file the next boot
	// warm-starts from.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-sig
		// A second signal during the (up to WriteTimeout-long) drain
		// forces an immediate exit — the operator must keep a way out
		// short of SIGKILL.
		go func() {
			<-sig
			log.Printf("arch21d: second signal, exiting without draining")
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), srv.WriteTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("arch21d: shutdown: %v", err)
		}
		if onShutdown != nil {
			onShutdown()
		}
	}()
	err := srv.ListenAndServe()
	if err != nil && err != http.ErrServerClosed {
		log.Fatalf("arch21d: %v", err)
	}
	if err == http.ErrServerClosed {
		<-done // let the drain + final snapshot finish before exiting
	}
}
