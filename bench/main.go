// Command bench is the repository's benchmark: six workloads from warm
// fabric replay to the HTTP wire, every output checked against a
// host-side reference, the paper's model and bound conformance reported
// beside host time. README.md in this directory is the glossary.
//
//	go run ./bench --workload NAME --seed N --seconds S --trace 0|1
//	    one workload; the last line of standard output is its result
//	go run ./bench -seed N [-smoke] [-out FILE]
//	    all six in interleaved slices, then a traced pass each
//	go run ./bench -compare OLD.json NEW.json
//	    judge two all-workload reports metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/autogen"
	"repro/internal/lowerbound"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// scratchRoot is where the benchmark keeps what it writes (plan stores of
// the cold workloads, span files): inside the checkout it runs from, and
// named in .gitignore.
const scratchRoot = ".bench_build"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this workload alone and print its one-line result")
		seed    = fs.Uint64("seed", 1, "seed of the generated input vectors")
		seconds = fs.Float64("seconds", 10, "how long one workload is measured (with -workload)")
		trace   = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
		smoke   = fs.Bool("smoke", false, "prove the benchmark runs: one 0.3 s slice, every 8th grid cell; the report is stamped and -compare refuses it")
		out     = fs.String("out", "", "also write the all-workloads report to this file")
		spans   = fs.String("spans", "", "file the traced pass writes its spans to (default "+scratchRoot+"/spans-<workload>.jsonl)")
		compare = fs.Bool("compare", false, "compare two all-workloads reports: -compare OLD.json NEW.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants OLD.json NEW.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	prof := fullProfile
	if *smoke {
		prof = smokeProfile
	}
	b := &bench{
		env:    &env{seed: *seed, tmp: tmp, prof: prof},
		spans:  *spans,
		stderr: stderr,
	}
	if *name != "" {
		w := workloadNamed(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: no workload %q\n", *name)
			return 2
		}
		ln, err := b.one(w, time.Duration(*seconds*float64(time.Second)), *trace != 0)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		buf, err := json.Marshal(ln)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", buf)
		return 0
	}
	rep, err := b.all()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err == nil && *out != "" {
		err = os.WriteFile(*out, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	code := 0
	for name, w := range rep.Workloads {
		if !w.Correct {
			fmt.Fprintf(stderr, "bench: %s: outputs not correct: %s\n", name, w.Error)
			code = 1
		}
	}
	return code
}

// bench is one invocation.
type bench struct {
	env    *env
	spans  string
	stderr io.Writer
	// What the latest set-up repetition's table builds took; the traced
	// pass reports them.
	autogenBuild, boundBuild time.Duration
}

// profile is how much of everything a run does.
type profile struct {
	smoke bool
	// setupReps is how many times a workload is set up; setup_s is the
	// median. Once would put one scheduling hiccup straight into the metric.
	setupReps int
	// slices and sliceDur shape the all-workloads run: slices per
	// time-bounded workload, taken round-robin, each sliceDur long.
	slices   int
	sliceDur time.Duration
	// traceDur is the all-workloads run's traced pass per workload;
	// minRounds the fewest rounds a traced pass takes whatever its time.
	traceDur  time.Duration
	minRounds int
	// probes bounds the cases a traced round probes; a workload with more
	// (the grid) is probed on an evenly strided subset. batchRuns is the
	// length of the ExecuteBatch the pass times per probed case.
	probes    int
	batchRuns int
	// gridStride thins paper-grid's lattice to every n-th cell.
	gridStride int
}

var (
	fullProfile = profile{
		setupReps: 3,
		slices:    40, sliceDur: time.Duration(sliceSeconds * float64(time.Second)),
		traceDur: 6 * time.Second, minRounds: 3,
		probes: 16, batchRuns: 16,
		gridStride: 1,
	}
	// smokeProfile proves the benchmark runs, in seconds: its numbers
	// measure nothing, its report says so, and -compare refuses it.
	smokeProfile = profile{
		smoke:     true,
		setupReps: 1,
		slices:    1, sliceDur: 300 * time.Millisecond,
		traceDur: 300 * time.Millisecond, minRounds: 1,
		probes: 2, batchRuns: 2,
		gridStride: 8,
	}
)

// tableP is the PE count the shared model tables are built for: the
// largest row any workload compiles.
const tableP = 512

// tableBuilds counts buildTables calls in this process.
var tableBuilds int

// buildTables builds the two dynamic-programming tables the compiler and
// the bound read — Auto-Gen's energy table and the lower bound's — as a
// fresh process does on its first large compile, and returns what each
// took. Both packages memoise, so every call after the process's first
// defeats the memo: Auto-Gen through its uncached Build, the bound by
// asking for one PE more than any table so far (0.6 % more work a step).
func buildTables() (autogenBuild, boundBuild time.Duration) {
	start := time.Now()
	if tableBuilds == 0 {
		autogen.For(tableP)
	} else {
		autogen.Build(tableP, autogen.DefaultCaps())
	}
	autogenBuild = time.Since(start)
	start = time.Now()
	lowerbound.For(tableP + tableBuilds)
	tableBuilds++
	return autogenBuild, time.Since(start)
}

// setUp sets the workload up once — tables, then the workload's own
// warm-up and set-up pass — and returns the instance with the seconds it
// took.
func (b *bench) setUp(w *workload) (instance, float64, error) {
	start := time.Now()
	b.autogenBuild, b.boundBuild = buildTables()
	in, err := w.setup(b.env)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return in, time.Since(start).Seconds(), nil
}

// running is a workload being measured: its latest instance, what each
// set-up repetition took, and the timed slices so far.
type running struct {
	w      *workload
	in     instance
	setups []float64
	seqs   []int
	slices []slice
	busy   time.Duration
}

// setUpAll sets every workload of ws up reps times and keeps each one's
// last instance. Repetitions go round the workloads, so that one slow
// stretch of the host does not land on all of one workload's set-ups.
func (b *bench) setUpAll(ws []*workload, reps int) ([]*running, error) {
	runs := make([]*running, len(ws))
	for i, w := range ws {
		runs[i] = &running{w: w, seqs: make([]int, w.callers)}
	}
	for rep := 0; rep < reps; rep++ {
		for _, r := range runs {
			if r.in != nil {
				if err := r.in.close(); err != nil {
					return nil, err
				}
			}
			var took float64
			var err error
			if r.in, took, err = b.setUp(r.w); err != nil {
				return nil, err
			}
			r.setups = append(r.setups, took)
		}
	}
	return runs, nil
}

// pass is how many operations make one slice of the workload, where a
// slice is a whole pass over the cases and not a span of time; else 0.
func (w *workload) pass(in instance) int {
	if !w.passes {
		return 0
	}
	return len(in.cases())
}

// one measures a single workload for about the given time and returns
// the driver's result line: the end-to-end metrics from timed slices, or
// with traced set the per-layer metrics from the traced pass.
func (b *bench) one(w *workload, dur time.Duration, traced bool) (*line, error) {
	reps := b.env.prof.setupReps
	if traced {
		reps = 1 // setup_s is not among the per-layer metrics
	}
	runs, err := b.setUpAll([]*workload{w}, reps)
	if err != nil {
		return nil, err
	}
	r := runs[0]
	defer r.in.close()
	if traced {
		tr, err := b.tracedPass(w, r.in, dur)
		if err != nil {
			return nil, err
		}
		if tr.firstErr != nil {
			fmt.Fprintf(b.stderr, "bench: %s: first failed operation: %v\n", w.name, tr.firstErr)
		}
		return &line{Correct: tr.failed == 0, Attempted: tr.attempted, Failed: tr.failed, Metrics: tr.m.complete()}, nil
	}
	if n := w.pass(r.in); n > 0 {
		// Whole passes until the time is used: the pass that crosses the
		// mark is finished, not cut.
		for start := time.Now(); len(r.slices) == 0 || time.Since(start) < dur; {
			r.slices = append(r.slices, runSlice(r.in, n, 0, r.seqs))
		}
	} else {
		n := int(math.Max(1, math.Round(dur.Seconds()/sliceSeconds)))
		for i := 0; i < n; i++ {
			r.slices = append(r.slices, runSlice(r.in, 0, dur/time.Duration(n), r.seqs))
		}
	}
	t := pool(r.slices)
	if t.firstErr != nil {
		fmt.Fprintf(b.stderr, "bench: %s: first failed operation: %v\n", w.name, t.firstErr)
	}
	fmt.Fprintf(b.stderr, "bench: %s: p50 %.4g ms, p90 %.4g ms over %d samples; per slice: ops/s %.4g, calibration ms %.3g\n",
		w.name, t.p50, t.p90, t.samples, t.sliceRate, t.calib)
	m := endToEndOf(r.in, r.setups, t)
	return &line{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: stripSlices(m.complete())}, nil
}

// endToEndOf assembles a workload's end-to-end metrics: host time from
// its timed slices, simulated time and conformance from its cases.
func endToEndOf(in instance, setups []float64, t timed) *metrics {
	m := newMetrics(endToEnd)
	m.set("setup_s", median(setups), setups...)
	m.set("op_p10_ms", t.p10, t.partP10...)
	m.set("ops_per_s", t.opsPerS, t.partRate...)
	m.set("alloc_kb_per_op", t.allocKBPerOp, t.partAlloc...)
	c := conform(in.cases())
	m.set("sim_cycles", float64(c.simCycles))
	m.set("model_err_mean_pct", c.modelErrMeanPct)
	m.set("bound_ratio_geomean", c.boundRatioGeomean)
	return m
}

func stripSlices(vals map[string]value) map[string]value {
	for name, v := range vals {
		v.Slices = nil
		vals[name] = v
	}
	return vals
}

// all runs every workload: set-up, then timed slices taken round-robin
// across the workloads so host drift lands on all of them, then a traced
// pass each.
func (b *bench) all() (*report, error) {
	prof := b.env.prof
	ws := make([]*workload, len(workloads))
	for i := range workloads {
		ws[i] = &workloads[i]
	}
	fmt.Fprintf(b.stderr, "bench: set-up\n")
	runs, err := b.setUpAll(ws, prof.setupReps)
	if err != nil {
		return nil, err
	}
	for _, r := range runs {
		defer r.in.close()
	}
	for s := 0; s < prof.slices; s++ {
		fmt.Fprintf(b.stderr, "bench: slice %d of %d\n", s+1, prof.slices)
		for _, r := range runs {
			// A workload whose slice is a whole pass takes its turn only
			// when it has used less time than the others have had.
			n := r.w.pass(r.in)
			if n > 0 && r.busy > time.Duration(s)*prof.sliceDur {
				continue
			}
			sl := runSlice(r.in, n, prof.sliceDur, r.seqs)
			r.busy += sl.busy
			r.slices = append(r.slices, sl)
		}
	}
	rep := &report{Schema: 1, Smoke: prof.smoke, Seed: b.env.seed, Host: stampHost(), Workloads: make(map[string]workloadReport)}
	for _, r := range runs {
		fmt.Fprintf(b.stderr, "bench: traced pass %s\n", r.w.name)
		t := pool(r.slices)
		wr := workloadReport{
			Why:       r.w.why,
			Attempted: t.attempted,
			Failed:    t.failed,
			EndToEnd:  endToEndOf(r.in, r.setups, t).complete(),
		}
		firstErr := t.firstErr
		tr, err := b.tracedPass(r.w, r.in, prof.traceDur)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", r.w.name, err)
		}
		wr.PerLayer = tr.m.complete()
		wr.Attempted += tr.attempted
		wr.Failed += tr.failed
		if firstErr == nil {
			firstErr = tr.firstErr
		}
		wr.Correct = wr.Failed == 0
		if firstErr != nil {
			wr.Error = firstErr.Error()
		}
		rep.Workloads[r.w.name] = wr
	}
	return rep, nil
}

// spansPath is where the traced pass of a workload writes its spans.
func (b *bench) spansPath(w *workload) string {
	if b.spans != "" {
		return b.spans
	}
	return filepath.Join(scratchRoot, "spans-"+w.name+".jsonl")
}
