// Command wsecollect runs a collective on the simulated wafer-scale
// fabric and reports measured cycles, the model prediction, and the fabric
// cost metrics (energy, contention). Collectives execute through a
// wse.Session, so the fabric program is compiled once and -repeat replays
// the cached plan — pass -repeat to see the compiled-plan subsystem's
// cold/warm split, and -workers to replay concurrently.
//
// Subcommands manage the on-disk plan store, the pre-deployment warm-up
// path, and the multi-tenant serving demo:
//
//	wsecollect export -store DIR [shape flags]   compile the shape into DIR
//	wsecollect warm   -store DIR                 preload every stored plan
//	wsecollect warm   -url URL [-store DIR]      warm a remote daemon over the
//	    wire (POST /v1/warm): the daemon resolves each shape through its own
//	    chain; -store sends the local store's whole key inventory, the shape
//	    flags send one shape
//	wsecollect [run]  -store DIR [shape flags]   serve with read/write-through
//	wsecollect serve  -tenants SPEC [shape flags]
//	    replay a mixed multi-tenant workload through the QoS scheduler and
//	    print the per-tenant latency table plus a JSON SchedStats dump.
//	    SPEC is a comma list of name:class:weight[:maxqueue] entries
//	    (class: interactive, batch, background).
//	wsecollect load -url URL [-requests N] [-workers K] [shape flags]
//	    hammer a running wsed daemon's /v1/run over the network with the
//	    -tenants weights as the request mix, and write BENCH_serve.json
//	    (RPS, p50/p99 wire latency, per-status counts).
//	wsecollect chaos [-requests N] [-failpoints SPEC] [shape flags]
//	    failure drill: drive a daemon (in-process, or -url for an external
//	    one launched with WSE_FAILPOINTS) through the retrying client with
//	    faults firing, assert the failure-model invariants, and write
//	    BENCH_chaos.json (served/shed/retried counts, recovery p99).
//	wsecollect trace [-url URL | -in FILE] [-min-ms F]
//	    fetch a daemon's committed traces (GET /debug/traces) or read a
//	    -trace-file JSONL, and pretty-print each span tree with per-span
//	    self-times — the "where did the milliseconds go" view.
//	wsecollect tune [-file FILE.wl | shape flags] [-tunings OUT.json] [-store DIR]
//	    autotune the plan parameters (algorithm, queue depth) of a
//	    workload's shapes — or the single flag shape — scoring every winner
//	    against the paper's lower bound; -tunings writes the winners as a
//	    sidecar, -store exports their compiled plans so a cold session
//	    replays them with zero recompilation.
//	wsecollect workload run -file FILE.wl [-tunings IN.json] [-sequential]
//	    execute a workload file as a DAG through a session: independent
//	    steps overlap via Submit futures, dependency results flow into
//	    dependent steps' inputs, and the per-step table reports cycles and
//	    the measured overlap.
//	wsecollect workload funcs
//	    list the registered step functions a workload file can use.
//
// Examples:
//
//	wsecollect -collective reduce -alg autogen -p 512 -bytes 1024
//	wsecollect -collective allreduce -alg auto -p 64 -bytes 4096 -op max
//	wsecollect -collective reduce2d -alg2d snake -grid 32x32 -bytes 256
//	wsecollect -collective gather -p 16 -bytes 4096
//	wsecollect -collective reduce -alg chain -p 128 -bytes 512 -repeat 64 -workers 8
//	wsecollect export -store ./plans -collective reduce -alg auto -p 512 -bytes 64
//	wsecollect warm -store ./plans
//	wsecollect serve -tenants "fg:interactive:1,bulk:batch:3,scavenger:background:1" -p 64 -bytes 256 -repeat 64 -workers 2
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	wse "repro"
	"repro/client"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/serve"
)

func main() { os.Exit(realMain()) }

// config carries every flag; subcommands share one flag set so a shape is
// spelled identically in run, export and warm invocations.
type config struct {
	collective string
	alg        string
	alg2d      string
	p          int
	grid       string
	bytes      int
	opName     string
	tr         int
	thermal    float64
	skew       int64
	seed       uint64
	repeat     int
	batch      int
	columnar   bool
	workers    int
	shards     int
	maxCycles  int64
	store      string
	cpuprofile string
	tenants    string
	url        string
	requests   int
	out        string
	compare    string
	failpoints string
	in         string
	minMS      float64
	file       string
	tunings    string
	sequential bool
	// set records which flags were passed explicitly, for defaults that
	// differ per subcommand (serve bursts -repeat 64 unless given).
	set map[string]bool
}

// flagHelp builds the -collective, -alg and -alg2d help strings from the
// kind table: every kind's short name, and every algorithm some kind accepts.
func flagHelp() (kinds, algs, algs2d string) {
	var names, a, a2 []string
	for _, ki := range plan.Kinds {
		names = append(names, ki.Name)
		for _, alg := range ki.Algs {
			if !slices.Contains(a, string(alg)) {
				a = append(a, string(alg))
			}
		}
		for _, alg := range ki.Algs2D {
			if !slices.Contains(a2, string(alg)) {
				a2 = append(a2, string(alg))
			}
		}
	}
	return strings.Join(names, ", "),
		strings.Join(append(a, string(wse.Auto)), ", "),
		strings.Join(append(a2, string(wse.Auto2D)), ", ")
}

func parseFlags(cmd string, args []string) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("wsecollect "+cmd, flag.ContinueOnError)
	kinds, algs, algs2d := flagHelp()
	fs.StringVar(&c.collective, "collective", "reduce", kinds+" (or the key name, e.g. reduce1d)")
	fs.StringVar(&c.alg, "alg", "auto", "1D algorithm: "+algs)
	fs.StringVar(&c.alg2d, "alg2d", "auto", "2D algorithm: "+algs2d)
	fs.IntVar(&c.p, "p", 64, "row length for 1D collectives")
	fs.StringVar(&c.grid, "grid", "16x16", "grid WxH for 2D collectives")
	fs.IntVar(&c.bytes, "bytes", 1024, "vector length in bytes (4 bytes per float32 wavelet)")
	fs.StringVar(&c.opName, "op", "sum", "reduction operator: sum, max, min")
	fs.IntVar(&c.tr, "tr", 0, "ramp latency T_R (0 = WSE-2 default of 2)")
	fs.Float64Var(&c.thermal, "thermal", 0, "thermal no-op rate (paper: wafer inserts no-ops to avoid cracking)")
	fs.Int64Var(&c.skew, "skew", 0, "max per-PE clock skew in cycles")
	fs.Uint64Var(&c.seed, "seed", 1, "deterministic seed for skew/thermal")
	fs.IntVar(&c.repeat, "repeat", 1, "run the collective this many times through the plan cache")
	fs.IntVar(&c.batch, "batch", 1, "replay the collective this many times per request via RunBatch (amortised bind/assembly)")
	fs.BoolVar(&c.columnar, "columnar", false, "skip per-PE result maps (WithColumnarResult)")
	fs.IntVar(&c.workers, "workers", 0, "concurrent replays (0 = GOMAXPROCS)")
	fs.IntVar(&c.shards, "shards", 0, "row-band shards per fabric simulation (0/1 = serial engine; results are bit-identical)")
	fs.Int64Var(&c.maxCycles, "maxcycles", 0, "per-run simulated-cycle cap (0 = session default of 2^28; raise for very large serialized runs)")
	fs.StringVar(&c.store, "store", "", "plan store directory (run: read/write-through; export/warm: required)")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of the runs to this file")
	fs.StringVar(&c.tenants, "tenants", "fg:interactive:1,bulk:batch:3,scavenger:background:1",
		"serve: comma list of tenant name:class:weight[:maxqueue] (class: interactive, batch, background)")
	fs.StringVar(&c.url, "url", "http://127.0.0.1:8080", "load: base URL of a running wsed daemon")
	fs.IntVar(&c.requests, "requests", 256, "load: total requests to send")
	fs.StringVar(&c.out, "out", "BENCH_serve.json", "load: where to write the wire-latency trajectory point")
	fs.StringVar(&c.compare, "compare", "BENCH_api.json", "load: in-process trajectory point to diff against (\"\" to skip)")
	fs.StringVar(&c.failpoints, "failpoints", "", "chaos: failpoint schedule for the in-process daemon (site=mode[:p=F][:count=N][:delay=D], semicolon list; default: 5% error on every inner seam)")
	fs.StringVar(&c.in, "in", "", "trace: read traces from this JSONL file (a wsed -trace-file) instead of -url")
	fs.Float64Var(&c.minMS, "min-ms", 0, "trace: only show traces at least this slow")
	fs.StringVar(&c.file, "file", "", "workload/tune: workload file to run or tune (step lines, see workload funcs)")
	fs.StringVar(&c.tunings, "tunings", "", "tune: write the tunings sidecar here; workload run: apply tunings from here")
	fs.BoolVar(&c.sequential, "sequential", false, "workload run: execute steps one at a time instead of overlapping independent steps")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	c.set = make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	return c, nil
}

// realMain carries the exit code back to main so deferred cleanup (CPU
// profile flush) runs before the process exits.
func realMain() int {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	// workload takes a sub-verb (run, funcs) that must be peeled before
	// flag parsing, which stops at the first non-flag argument.
	sub := ""
	if cmd == "workload" && len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	c, err := parseFlags(cmd, args)
	if err == flag.ErrHelp {
		return 0
	}
	if err != nil {
		return 2
	}

	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsecollect:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "wsecollect:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	switch cmd {
	case "run":
		err = runCmd(c)
	case "export":
		err = exportCmd(c)
	case "warm":
		err = warmCmd(c)
	case "serve":
		err = serveCmd(c)
	case "load":
		err = loadCmd(c)
	case "chaos":
		err = chaosCmd(c)
	case "trace":
		err = traceCmd(c)
	case "tune":
		err = tuneCmd(c)
	case "workload":
		err = workloadCmd(c, sub)
	default:
		err = fmt.Errorf("unknown subcommand %q (run, export, warm, serve, load, chaos, trace, tune, workload)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsecollect:", err)
		return 1
	}
	return 0
}

func (c *config) options() wse.Options {
	return wse.Options{TR: c.tr, ThermalNoopRate: c.thermal, ClockSkewMax: c.skew,
		Seed: c.seed, Shards: c.shards, MaxCycles: c.maxCycles}
}

// shape resolves the flag spelling of a collective into a wse.Shape,
// filling the fields its row of the kind table says the kind consults.
func (c *config) shape() (wse.Shape, error) {
	ki, ok := plan.LookupKind(c.collective)
	if !ok {
		return wse.Shape{}, fmt.Errorf("%w: unknown collective %q", wse.ErrBadShape, c.collective)
	}
	op, err := fabric.ParseReduceOp(c.opName)
	if err != nil {
		return wse.Shape{}, err
	}
	b := c.bytes / 4
	if b < 1 {
		return wse.Shape{}, fmt.Errorf("vector must be at least 4 bytes")
	}
	var w, h int
	if n, err := fmt.Sscanf(c.grid, "%dx%d", &w, &h); n != 2 || err != nil {
		return wse.Shape{}, fmt.Errorf("bad -grid %q (want WxH)", c.grid)
	}
	sh := wse.Shape{Kind: ki.Kind, B: b, Op: op}
	if ki.Grid {
		sh.Width, sh.Height = w, h
	} else {
		sh.P = c.p
	}
	if ki.Algs != nil {
		sh.Alg = wse.Algorithm(c.alg)
	}
	if ki.Algs2D != nil {
		sh.Alg2D = wse.Algorithm2D(c.alg2d)
	}
	return sh, nil
}

// describe renders the PE geometry and algorithm of a shape for the report
// line, followed by what the model chose under opt where it had a choice:
// the algorithm an Auto resolved to — with the kind whose program runs it,
// when that is another row's — or the schedule of an algorithm-free kind.
func describe(sh wse.Shape, opt wse.Options) string {
	ki := plan.InfoOf(sh.Kind)
	w, h := sh.P, 1
	if ki.Grid {
		w, h = sh.Width, sh.Height
	}
	out := fmt.Sprintf("%dx%d PEs", w, h)
	res := sh.Resolve(wse.WithOptions(opt))
	alg, chosen := string(sh.Alg), string(res.Alg)
	switch {
	case ki.Algs2D != nil:
		alg, chosen = string(sh.Alg2D), string(res.Alg2D)
	case ki.Algs == nil:
		alg = ""
	}
	if alg != "" {
		out += ", alg=" + alg
	}
	if res.Kind != sh.Kind {
		chosen = plan.InfoOf(res.Kind).Name + "/" + chosen
	}
	if chosen != alg {
		out += " (→ " + chosen + ")"
	}
	return out
}

// tenantSpecs parses the -tenants spec; the CLI needs at least one tenant.
func (c *config) tenantSpecs() ([]serve.TenantSpec, error) {
	specs, err := serve.ParseTenants(c.tenants)
	if err == nil && len(specs) == 0 {
		err = fmt.Errorf("-tenants spec is empty")
	}
	return specs, err
}

// inputsFor builds all-ones inputs in the layout the shape's kind takes.
func inputsFor(sh wse.Shape) [][]float32 {
	return sh.Inputs(func(n int) []float32 { return slices.Repeat([]float32{1}, n) })
}

// once builds the run closure for a shape: the inputs and the session
// call that serves it. With -batch N each call replays the shape N times
// through RunBatch (one scheduled request, at most one simulator run);
// -columnar skips the per-PE result maps either way.
func once(c *config, sess *wse.Session, sh wse.Shape) func() (*wse.Report, error) {
	inputs := inputsFor(sh)
	var opts []wse.Option
	if c.columnar {
		opts = append(opts, wse.WithColumnarResult())
	}
	ctx := context.Background()
	if c.batch > 1 {
		batches := make([][][]float32, c.batch)
		for i := range batches {
			batches[i] = inputs
		}
		return func() (*wse.Report, error) {
			reps, err := sess.RunBatch(ctx, sh, batches, opts...)
			if err != nil {
				return nil, err
			}
			return reps[len(reps)-1], nil
		}
	}
	return func() (*wse.Report, error) { return sess.Run(ctx, sh, inputs, opts...) }
}

// exportCmd compiles the flag-specified shape into the plan store without
// running it: the staging half of the pre-deployment warm-up recipe.
func exportCmd(c *config) error {
	if c.store == "" {
		return fmt.Errorf("export requires -store DIR")
	}
	sh, err := c.shape()
	if err != nil {
		return err
	}
	store, err := wse.OpenPlanStore(c.store)
	if err != nil {
		return err
	}
	sess := wse.NewSession(wse.SessionConfig{Options: c.options()})
	start := time.Now()
	st, err := sess.Warm(store, []wse.Shape{sh})
	if err != nil {
		return err
	}
	fmt.Printf("exported %s to %s in %v: %d plans (%d with tape; %d compiled, %d already stored); store holds %d plans\n",
		c.collective, c.store, time.Since(start).Round(time.Millisecond),
		st.Compiled+st.Loaded+st.Resident, st.Taped, st.Compiled, st.Loaded+st.Resident, store.Len())
	return nil
}

// warmCmd decodes every stored plan into a fresh session's cache — what a
// serving process does before taking traffic — and reports the decode
// throughput and the resulting cache population. With an explicit -url
// it instead warms a *remote* daemon over the wire (POST /v1/warm): the
// daemon resolves each shape through its own chain, so it is pre-heated
// without filesystem access to its store.
func warmCmd(c *config) error {
	if c.set["url"] {
		return remoteWarmCmd(c)
	}
	if c.store == "" {
		return fmt.Errorf("warm requires -store DIR (or -url URL for remote warming)")
	}
	store, err := wse.OpenPlanStore(c.store)
	if err != nil {
		return err
	}
	sess := wse.NewSession(wse.SessionConfig{Options: c.options(), Workers: c.workers})
	start := time.Now()
	st, err := sess.Warm(store, nil)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsecollect: warm (continuing):", err)
	}
	fmt.Printf("warmed %d plans (%d with tape) from %s in %v (%d decoded, %d compiled)\n",
		st.Loaded+st.Compiled+st.Resident, st.Taped, c.store, elapsed.Round(time.Millisecond), st.Loaded, st.Compiled)
	keys := store.Keys()
	names := make([]string, 0, len(keys))
	for _, k := range keys {
		names = append(names, k.String())
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Println("  ", n)
	}
	return nil
}

// remoteWarmCmd warms a running daemon's plan cache over the wire. The
// shape list is the local -store's full key inventory when -store is
// given (pre-heat a daemon from a staging store's catalogue,
// without the daemon ever reading that store), else the single shape
// the flags spell.
func remoteWarmCmd(c *config) error {
	var shapes []client.Shape
	if c.store != "" {
		store, err := wse.OpenPlanStore(c.store)
		if err != nil {
			return err
		}
		for _, k := range store.Keys() {
			shapes = append(shapes, serve.WireShape(wse.Shape{Kind: k.Kind, Alg: k.Alg, Alg2D: k.Alg2D,
				P: k.P, Width: k.Width, Height: k.Height, B: k.B, Op: k.Op}))
		}
		if len(shapes) == 0 {
			return fmt.Errorf("store %s holds no plans to warm from", c.store)
		}
	} else {
		sh, err := c.shape()
		if err != nil {
			return err
		}
		shapes = append(shapes, serve.WireShape(sh))
	}
	cl := client.New(client.Config{BaseURL: c.url})
	start := time.Now()
	res, err := cl.Warm(context.Background(), shapes)
	if err != nil {
		return err
	}
	fmt.Printf("remotely warmed %s in %v: %d fetched/compiled, %d already resident, %d failed\n",
		c.url, time.Since(start).Round(time.Millisecond), res.Warmed, res.Resident, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "wsecollect: warm:", e)
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d shapes failed to warm", res.Failed)
	}
	return nil
}

// serveCmd is the multi-tenant serving demo: every -tenants tenant
// bursts -repeat copies of the flag shape at the session at once, so the
// worker pool saturates and the QoS scheduler decides who runs when.
// The per-tenant table then shows the policy at work: weighted-fair
// served counts, class precedence in the queue-wait quantiles, and
// ErrOverloaded rejections for tenants with a tight maxqueue bound —
// followed by the raw SchedStats dumped as JSON for dashboards.
func serveCmd(c *config) error {
	specs, err := c.tenantSpecs()
	if err != nil {
		return err
	}
	sh, err := c.shape()
	if err != nil {
		return err
	}
	repeat := c.repeat
	if !c.set["repeat"] {
		repeat = 64 // one request per tenant shows no contention; default to a burst
	}
	if repeat < 1 {
		repeat = 1
	}
	cfg := wse.SessionConfig{Options: c.options(), Workers: c.workers}
	if c.store != "" { // read/write-through, exactly as run mode attaches it
		store, err := wse.OpenPlanStore(c.store)
		if err != nil {
			return err
		}
		cfg.Store = store
	}
	sess := wse.NewSession(cfg)
	defer sess.Close()
	inputs := inputsFor(sh)

	start := time.Now()
	var wg sync.WaitGroup
	var rejected, cancelled, failed atomic.Int64
	ctx := context.Background()
	for _, ts := range specs {
		tn := sess.WithTenant(ts.Name, ts.Cfg)
		for i := 0; i < repeat; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch _, err := tn.Run(ctx, sh, inputs); {
				case errors.Is(err, wse.ErrOverloaded):
					rejected.Add(1)
				case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
					cancelled.Add(1)
				case err != nil:
					failed.Add(1)
					fmt.Fprintln(os.Stderr, "wsecollect: serve:", err)
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := sess.Close(); err != nil {
		return err
	}

	st := sess.SchedStats()
	fmt.Printf("served %d requests (%s of %d bytes each) from %d tenants in %v: %d ok, %d rejected, %d cancelled\n",
		len(specs)*repeat, c.collective, c.bytes, len(specs),
		elapsed.Round(time.Millisecond), int64(len(specs)*repeat)-rejected.Load()-cancelled.Load()-failed.Load(),
		rejected.Load(), cancelled.Load())
	fmt.Printf("%-12s %-12s %6s %7s %8s %9s %12s %12s %12s %12s\n",
		"tenant", "class", "weight", "served", "rejected", "cancelled",
		"wait p50", "wait p99", "exec p50", "exec p99")
	names := make([]string, 0, len(st.Tenants))
	for name := range st.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := st.Tenants[name]
		fmt.Printf("%-12s %-12s %6d %7d %8d %9d %12v %12v %12v %12v\n",
			name, ts.Class, ts.Weight, ts.Served, ts.Rejected, ts.Cancelled,
			ts.QueueWaitP50.Round(time.Microsecond), ts.QueueWaitP99.Round(time.Microsecond),
			ts.ExecP50.Round(time.Microsecond), ts.ExecP99.Round(time.Microsecond))
	}
	fmt.Printf("pool: %d workers, max queue depth %d, saturated %v of %v (%.0f%%)\n",
		st.Pool.Workers, st.Pool.MaxDepth, st.Pool.Saturated.Round(time.Millisecond),
		elapsed.Round(time.Millisecond), 100*float64(st.Pool.Saturated)/float64(elapsed))

	buf, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

func runCmd(c *config) error {
	sh, err := c.shape()
	if err != nil {
		return err
	}
	repeat := c.repeat
	if repeat < 1 {
		repeat = 1
	}
	cfg := wse.SessionConfig{Options: c.options(), Workers: c.workers}
	if c.store != "" {
		store, err := wse.OpenPlanStore(c.store)
		if err != nil {
			return err
		}
		cfg.Store = store
	}
	sess := wse.NewSession(cfg)
	run := once(c, sess, sh)

	// Cold call: compiles the plan into the session cache (or, with a
	// store attached, decodes the stored plan).
	coldStart := time.Now()
	rep, err := run()
	if err != nil {
		return err
	}
	cold := time.Since(coldStart)

	// Warm calls: replay the cached plan, concurrently when asked. A
	// fixed pool of feeder goroutines (not one per repeat) drains the
	// remaining count; the session's worker pool bounds the simulations.
	var warm time.Duration
	if repeat > 1 {
		warmStart := time.Now()
		feeders := c.workers
		if feeders <= 0 {
			feeders = runtime.GOMAXPROCS(0)
		}
		if feeders > repeat-1 {
			feeders = repeat - 1
		}
		var remaining atomic.Int64
		remaining.Store(int64(repeat - 1))
		var wg sync.WaitGroup
		errs := make(chan error, feeders)
		for i := 0; i < feeders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for remaining.Add(-1) >= 0 {
					if _, err := run(); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return err
		}
		warm = time.Since(warmStart) / time.Duration(repeat-1)
	}

	fmt.Printf("%s of %d bytes on %s\n", c.collective, c.bytes, describe(sh, c.options()))
	fmt.Printf("  measured   %10d cycles (%.2f us at 850 MHz)\n", rep.Cycles, float64(rep.Cycles)/850)
	fmt.Printf("  predicted  %10.0f cycles (%.1f%% relative error)\n", rep.Predicted,
		100*abs(float64(rep.Cycles)-rep.Predicted)/float64(rep.Cycles))
	fmt.Printf("  energy     %10d wavelet-hops\n", rep.Stats.Hops)
	fmt.Printf("  contention %10d wavelets at the busiest PE\n", rep.Stats.MaxReceived)
	if rep.Stats.Noops > 0 {
		fmt.Printf("  thermal    %10d inserted no-ops\n", rep.Stats.Noops)
	}
	if len(rep.Root) > 0 {
		fmt.Printf("  result[0]  %10.1f\n", rep.Root[0])
	}
	if repeat > 1 || c.store != "" {
		st := sess.PlanStats()
		fmt.Printf("  plan cache %10d hits, %d misses (cold %v, warm %v/op)\n",
			st.Hits, st.Misses, cold.Round(time.Microsecond), warm.Round(time.Microsecond))
		fmt.Printf("  replay tape %9d recorded, %d loaded, %d replays, %d declined\n", st.TapeRecords, st.TapeLoaded, st.TapeReplays, st.TapeDeclined)
		if c.store != "" {
			fmt.Printf("  plan store %10d loads, %d errors\n", st.StoreHits, st.StoreErrors)
		}
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
