// Command wsed is the network serving daemon for the Shape-first verbs:
// a wse.Session behind an HTTP surface. Clients POST JSON shapes to
// /v1/run, /v1/predict and /v1/bound (or /v1/submit + /v1/jobs/{id} for
// the async tier), tenant identity rides an auth header into the
// session's QoS scheduler, /metrics feeds Prometheus, and SIGTERM drains
// gracefully: in-flight requests finish, new ones get 503, the session
// closes, the listener stops.
//
//	wsed -addr :8080 -store /var/lib/wse/plans \
//	     -tenants "fg:interactive:4:64,bulk:batch:1" \
//	     -default-tenant batch:1:32
//
// A plan-cache miss takes the session's one miss path: the -store
// directory, then compile with write-back. Daemons that share a store
// directory therefore compile each distinct shape once between them.
//
// See internal/serve for the endpoint and wire-format reference, and
// `wsecollect load` for the matching load generator.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	wse "repro"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	fs := flag.NewFlagSet("wsed", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "session worker pool size (0 = GOMAXPROCS)")
	cache := fs.Int("cache", 0, "plan cache capacity (0 = default of 128)")
	storeDir := fs.String("store", "", "plan store directory (read/write-through when set)")
	warm := fs.Bool("warm", false, "preload every stored plan before listening (requires -store)")
	tenants := fs.String("tenants", "", "pre-registered tenants: comma list of name:class:weight[:maxqueue]")
	defTenant := fs.String("default-tenant", "batch:1", "QoS for unknown tenant names: class:weight[:maxqueue]")
	retryAfter := fs.Duration("retry-after", time.Second, "floor of the load-derived Retry-After hint on 429 responses")
	reqTimeout := fs.Duration("request-timeout", 0, "server-side deadline per synchronous request (0 = unbounded; clients tighten per request via X-WSE-Deadline-Ms)")
	jobTTL := fs.Duration("job-ttl", 5*time.Minute, "how long completed async jobs stay pollable")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "cap on the SIGTERM graceful drain")
	maxCycles := fs.Int64("maxcycles", 0, "per-run simulated-cycle cap (0 = session default of 2^28)")
	shards := fs.Int("shards", 0, "row-band shards per fabric simulation (0 = auto-tune from GOMAXPROCS)")
	verifyStore := fs.Bool("verify-store", false, "run the plan store corruption sweep at startup: check every blob's hash and re-simulate every stored replay tape, quarantining bad blobs (requires -store)")
	traceOn := fs.Bool("trace", true, "enable request tracing (spans, GET /debug/traces)")
	traceSample := fs.Float64("trace-sample", 1, "head-sampling probability in [0,1]; errored and slow traces are kept regardless")
	traceSlow := fs.Duration("trace-slow", 0, "keep any trace at least this slow even when not head-sampled (0 = off)")
	traceFile := fs.String("trace-file", "", "append committed traces as JSON lines to this file")
	debugAddr := fs.String("debug-addr", "", "separate listener for net/http/pprof (never mounted on the public address)")
	slowMS := fs.Int64("slow-ms", 0, "log one structured line per request slower than this many milliseconds (rate-limited; 0 = off)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	logger := log.New(os.Stderr, "wsed: ", log.LstdFlags)

	tracer, closeTracer, err := buildTracer(*traceOn, *traceSample, *traceSlow, *traceFile)
	if err != nil {
		logger.Println(err)
		return 1
	}
	defer closeTracer()
	if *debugAddr != "" {
		startDebugServer(logger, *debugAddr)
	}

	defCfg, err := parseTenantConfig(*defTenant)
	if err != nil {
		logger.Println(err)
		return 2
	}
	specs, err := serve.ParseTenants(*tenants)
	if err != nil {
		logger.Println(err)
		return 2
	}

	cfg := wse.SessionConfig{
		Options:           wse.Options{MaxCycles: *maxCycles, Shards: *shards},
		PlanCacheCapacity: *cache,
		Workers:           *workers,
		Scheduler:         wse.SchedulerConfig{DefaultTenant: defCfg},
	}
	var store *wse.PlanStore
	if *storeDir != "" {
		if store, err = wse.OpenPlanStore(*storeDir); err != nil {
			logger.Println(err)
			return 1
		}
		cfg.Store = store
	}
	if *verifyStore {
		if store == nil {
			logger.Println("-verify-store requires -store DIR")
			return 2
		}
		ok, quarantined, err := store.Verify()
		if err != nil {
			logger.Println("verify-store (continuing):", err)
		}
		for _, q := range quarantined {
			logger.Printf("verify-store: quarantined corrupt blob %s", q)
		}
		logger.Printf("verify-store: %d plans intact, %d quarantined", ok, len(quarantined))
	}
	sess := wse.NewSession(cfg)
	if *warm {
		if store == nil {
			logger.Println("-warm requires -store DIR")
			return 2
		}
		st, err := sess.Warm(store, nil)
		if err != nil {
			logger.Println("warm (continuing):", err)
		}
		logger.Printf("warmed %d plans (%d with tape) from %s (%d decoded, %d compiled)", st.Loaded+st.Compiled+st.Resident, st.Taped, *storeDir, st.Loaded, st.Compiled)
	}

	srv := serve.New(serve.Config{
		Session:        sess,
		Store:          store,
		DefaultTenant:  defCfg,
		Tenants:        specs,
		RetryAfter:     *retryAfter,
		RequestTimeout: *reqTimeout,
		JobTTL:         *jobTTL,
		Tracer:         tracer,
		SlowThreshold:  time.Duration(*slowMS) * time.Millisecond,
		SlowLogger:     logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigs
		logger.Printf("%v: draining (in-flight requests finish, new requests get 503)", sig)
		// Admission stops first so the drain is observable immediately;
		// Shutdown then waits for in-flight handlers, and Drain closes
		// the session's queues and worker pool behind them.
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Println("shutdown:", err)
		}
		if err := srv.Drain(); err != nil {
			logger.Println("drain:", err)
		}
		logger.Println("drained")
	}()

	// A daemon running a chaos drill should say so: failpoints armed via
	// WSE_FAILPOINTS would otherwise be indistinguishable from real faults.
	if armed := faults.Active(); len(armed) > 0 {
		logger.Printf("FAILPOINTS ARMED (chaos drill): %s", strings.Join(armed, "; "))
	}
	logger.Printf("listening on %s (%d pre-registered tenants, store=%q)", *addr, len(specs), *storeDir)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Println(err)
		return 1
	}
	<-done // ListenAndServe returns as soon as Shutdown starts; let it finish
	return 0
}

// buildTracer assembles the daemon's tracer from the -trace* flags: nil
// (and zero per-request overhead) when tracing is off, otherwise head
// sampling at -trace-sample with errored and over--trace-slow traces
// kept regardless, optionally appending committed traces to -trace-file
// as JSON lines. The returned closer flushes and detaches the tracer.
func buildTracer(on bool, sample float64, slow time.Duration, file string) (*obs.Tracer, func(), error) {
	if !on {
		return nil, func() {}, nil
	}
	cfg := obs.Config{Sample: sample, SlowThreshold: slow}
	var f *os.File
	if file != "" {
		var err error
		f, err = os.OpenFile(file, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("trace-file: %w", err)
		}
		cfg.Sink = f
	}
	t := obs.NewTracer(cfg)
	return t, func() {
		t.Close()
		if f != nil {
			f.Close()
		}
	}, nil
}

// startDebugServer exposes net/http/pprof on its own listener — a fresh
// mux on a separate address, never the public one: profiling is an
// operator surface, not part of the API, and -debug-addr should bind a
// loopback or otherwise-firewalled address.
func startDebugServer(logger *log.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		logger.Printf("debug listener (pprof) on %s", addr)
		if err := http.ListenAndServe(addr, mux); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Println("debug listener:", err)
		}
	}()
}

// parseTenantConfig parses class:weight[:maxqueue] — a -tenants entry
// without the leading name.
func parseTenantConfig(spec string) (wse.TenantConfig, error) {
	var cfg wse.TenantConfig
	parts := strings.Split(strings.TrimSpace(spec), ":")
	if len(parts) < 2 || len(parts) > 3 {
		return cfg, fmt.Errorf("bad -default-tenant %q (want class:weight[:maxqueue])", spec)
	}
	var err error
	if cfg.Priority, err = serve.ParseTenantClass(parts[0]); err != nil {
		return cfg, err
	}
	if cfg.Weight, err = strconv.Atoi(parts[1]); err != nil || cfg.Weight < 1 {
		return cfg, fmt.Errorf("bad -default-tenant weight %q", parts[1])
	}
	if len(parts) == 3 {
		if cfg.MaxQueue, err = strconv.Atoi(parts[2]); err != nil || cfg.MaxQueue < 1 {
			return cfg, fmt.Errorf("bad -default-tenant maxqueue %q", parts[2])
		}
	}
	return cfg, nil
}
