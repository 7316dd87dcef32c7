package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	wse "repro"
)

// smallShapes is every kind once, at sizes that run in microseconds, with
// uneven chunking (B not a multiple of P) for the chunked kinds.
var smallShapes = []wse.Shape{
	{Kind: wse.KindReduce, Alg: wse.Auto, P: 5, B: 7},
	{Kind: wse.KindAllReduce, Alg: wse.Ring, P: 4, B: 9},
	{Kind: wse.KindAllReduceMidRoot, Alg: wse.TwoPhase, P: 6, B: 3},
	{Kind: wse.KindBroadcast, P: 5, B: 4},
	{Kind: wse.KindScatter, P: 4, B: 10},
	{Kind: wse.KindGather, P: 4, B: 10},
	{Kind: wse.KindReduceScatter, P: 4, B: 10},
	{Kind: wse.KindAllGather, P: 4, B: 10},
	{Kind: wse.KindReduce2D, Alg2D: wse.Auto2D, Width: 3, Height: 2, B: 5},
	{Kind: wse.KindAllReduce2D, Alg2D: wse.Snake, Width: 2, Height: 3, B: 5},
	{Kind: wse.KindBroadcast2D, Width: 3, Height: 3, B: 2},
}

func TestReferencesAcceptEveryKindAndRejectCorruption(t *testing.T) {
	e := &env{seed: 7}
	for _, k := range cases(e.rng(1), smallShapes...) {
		rep, err := wse.Run(context.Background(), k.sh, k.inputs)
		if err := k.learn(rep, err); err != nil {
			t.Fatalf("reference rejects a correct run: %v", err)
		}
		if err := k.verify(rep.Cycles, rep.Root); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := k.verify(rep.Cycles+1, rep.Root); err == nil {
			t.Errorf("%v: a changed cycle count passed", k)
		}
		// Corrupt the last element some PE is responsible for: the check
		// must see it wherever the kind's layout puts it.
		last := wse.Coord{X: k.sh.P - 1}
		if k.sh.Width > 0 {
			last = wse.Coord{X: k.sh.Width - 1, Y: k.sh.Height - 1}
		}
		switch k.sh.Kind {
		case wse.KindReduce, wse.KindReduce2D, wse.KindGather:
			rep.Root[len(rep.Root)-1]++
		case wse.KindScatter:
			rep.All[last][0]++
		case wse.KindReduceScatter:
			off, _ := wse.Chunks(k.sh.P, k.sh.B)
			rep.All[last][off[k.sh.P-1]]++
		default:
			rep.All[last][k.sh.B-1]++
		}
		if err := checkAll(k.sh, k.want, rep); err == nil {
			t.Errorf("%v: a corrupted result passed", k)
		}
	}
}

func TestGenInputsIsSeeded(t *testing.T) {
	sh := wse.Shape{Kind: wse.KindGather, P: 3, B: 8}
	a := genInputs(sh, (&env{seed: 1}).rng(1))
	b := genInputs(sh, (&env{seed: 1}).rng(1))
	c := genInputs(sh, (&env{seed: 2}).rng(1))
	if !sameInputs(a, b) {
		t.Error("one seed gave two inputs")
	}
	if sameInputs(a, c) {
		t.Error("two seeds gave one input")
	}
	if len(a) != 3 || len(a[0]) != 3 || len(a[2]) != 2 {
		t.Errorf("gather chunks %d/%d/%d, want 3/3/2", len(a[0]), len(a[1]), len(a[2]))
	}
}

func sameInputs(a, b [][]float32) bool {
	for i := range a {
		if sameVec(a[i], b[i], "") != nil {
			return false
		}
	}
	return true
}

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0, 1}} {
		if got := percentile(append([]float64(nil), v...), c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median of ten = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if v[0] != 9 {
		t.Error("median reordered its argument")
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("no samples must read 0")
	}
}

func TestPoolPoolsSamplesAndTakesRatesPerSlice(t *testing.T) {
	mk := func(lat time.Duration, n int, allocKB float64) slice {
		s := slice{allocKB: allocKB}
		for i := 0; i < n; i++ {
			s.lat = append(s.lat, lat)
			s.busy += lat
		}
		return s
	}
	// Two fast slices and one slow one with a burst of allocation: the
	// pooled quantiles, the best rate and the median allocation stay with
	// the fast ones.
	fast1, fast2, slow := mk(time.Millisecond, 100, 1000), mk(time.Millisecond, 100, 1000), mk(4*time.Millisecond, 25, 5000)
	slow.failed = 2
	got := pool([]slice{fast1, slow, fast2})
	if got.samples != 225 || got.failed != 2 || got.attempted != 227 {
		t.Errorf("samples %d failed %d attempted %d", got.samples, got.failed, got.attempted)
	}
	if got.p10 != 1 || got.p50 != 1 || got.p90 != 4 {
		t.Errorf("p10 %v p50 %v p90 %v, want 1, 1 and 4", got.p10, got.p50, got.p90)
	}
	if got.p99 != 0 {
		t.Errorf("p99 %v from %d samples: needs %d", got.p99, got.samples, p99MinSamples)
	}
	if math.Abs(got.opsPerS-1000) > 1e-6 {
		t.Errorf("ops/s %v, want the best slice's 1000", got.opsPerS)
	}
	if got.allocKBPerOp != 10 {
		t.Errorf("alloc/op %v KB, want the median slice's 10", got.allocKBPerOp)
	}
	if len(got.sliceRate) != 3 || len(got.partP10) != 0 {
		t.Errorf("%d slice rates, %d part readings from 3 slices; want 3 and none", len(got.sliceRate), len(got.partP10))
	}
	eight := pool([]slice{fast1, fast1, slow, slow, fast2, fast2, slow, fast1})
	if want := []float64{1, 4, 1, 1}; !equalFloats(eight.partP10, want) {
		t.Errorf("p10 by quarter %v, want %v", eight.partP10, want)
	}
	if want := []float64{1000, 250, 1000, 1000}; !equalFloats(eight.partRate, want) {
		t.Errorf("best rate by quarter %v, want %v", eight.partRate, want)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v.
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 40}, 10, 40},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestJudge(t *testing.T) {
	lat, _ := defNamed(endToEnd, "op_p10_ms")
	rate, _ := defNamed(endToEnd, "ops_per_s")
	cyc, _ := defNamed(endToEnd, "sim_cycles")
	steady := func(x float64) value { return value{Value: x, Slices: []float64{x * 0.99, x, x, x * 1.01}} }
	noisy := func(x float64) value { return value{Value: x, Slices: []float64{x * 0.7, x * 0.9, x * 1.1, x * 1.4}} }
	for _, c := range []struct {
		name     string
		def      metricDef
		old, new value
		want     verdict
	}{
		{"within the bound", lat, steady(100), steady(100 * (1 + lat.Bound/2)), same},
		{"beyond the bound", lat, steady(100), steady(100 * (1 + 2*lat.Bound)), worse},
		{"beyond it the good way", lat, steady(100), steady(100 * (1 - 2*lat.Bound)), better},
		{"higher is better", rate, steady(100), steady(100 * (1 - 2*rate.Bound)), worse},
		{"own spread over the bound", lat, noisy(100), noisy(100 * (1 + 2*lat.Bound)), unresolved},
		{"noisy but disjoint", lat, noisy(100), noisy(300), unresolved},
		{"noisy but disjoint, the good way", lat, noisy(300), noisy(100), better},
		{"exact, equal", cyc, value{Value: 5697}, value{Value: 5697}, same},
		{"exact, one cycle more", cyc, value{Value: 5697}, value{Value: 5698}, worse},
		{"exact, one cycle fewer", cyc, value{Value: 5697}, value{Value: 5696}, better},
	} {
		if got := judge(c.def, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, smoke bool, p50 float64) string {
		r := report{Schema: 1, Smoke: smoke, Host: stampHost(), Workloads: map[string]workloadReport{}}
		for _, w := range workloads {
			m := newMetrics(endToEnd)
			m.set("op_p10_ms", p50, p50, p50, p50)
			m.set("sim_cycles", 1000)
			r.Workloads[w.name] = workloadReport{Correct: true, EndToEnd: m.complete()}
		}
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, again, slow, smoke := mk("a.json", false, 10), mk("b.json", false, 10.5), mk("c.json", false, 20), mk("s.json", true, 10)
	var out, errs bytes.Buffer
	if code := compareFiles(base, again, &out, &errs); code != 0 {
		t.Errorf("a re-run within the bound exits %d:\n%s%s", code, out.String(), errs.String())
	}
	if strings.Contains(out.String(), string(worse)) {
		t.Errorf("a re-run within the bound has a worse metric:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(base, slow, &out, &errs); code != 1 || !strings.Contains(out.String(), string(worse)) {
		t.Errorf("a doubled latency exits %d:\n%s", code, out.String())
	}
	if code := compareFiles(base, smoke, &out, &errs); code != 2 || !strings.Contains(errs.String(), "smoke") {
		t.Errorf("a smoke file exits %d: %s", code, errs.String())
	}
	if code := run([]string{"-compare", base}, &out, &errs); code != 2 {
		t.Errorf("-compare with one file exits %d", code)
	}
}

func TestConformCountsWhatThePaperForbids(t *testing.T) {
	auto := wse.Shape{Kind: wse.KindReduce, Alg: wse.Auto, P: 4, B: 1}
	pinned := wse.Shape{Kind: wse.KindReduce, Alg: wse.Star, P: 4, B: 1}
	c := conform([]*kase{
		{sh: auto, cycles: 100, predicted: 110, reported: 110, bound: 50},                 // fine
		{sh: auto, cycles: 100, predicted: math.Inf(1), reported: math.Inf(1), bound: 50}, // non-finite
		{sh: auto, cycles: 100, predicted: 90, reported: 91, bound: 50},                   // mismatch
		{sh: auto, cycles: 100, predicted: 100, reported: 100, bound: 120},                // bound over model, cycles under bound
		{sh: pinned, cycles: 400, predicted: 400, reported: 400, bound: 50},               // pinned: no say in the ratio
	})
	if c.cells != 5 || c.simCycles != 800 {
		t.Errorf("cells %d cycles %d", c.cells, c.simCycles)
	}
	if c.nonfinite != 1 || c.predictMismatch != 1 || c.boundGtPredict != 1 || c.cyclesLtBound != 1 || c.nonconforming != 3 {
		t.Errorf("counters %+v", c)
	}
	if want := 5.0; math.Abs(c.modelErrMeanPct-want) > 1e-9 { // (10 + 10 + 0 + 0) / 4 finite cells
		t.Errorf("mean model error %v, want %v", c.modelErrMeanPct, want)
	}
	// Ratios 2, 2, 2 and 100/120 over the four auto cells.
	if want := math.Pow(8*100.0/120, 0.25); math.Abs(c.boundRatioGeomean-want) > 1e-9 {
		t.Errorf("bound ratio geomean %v, want %v", c.boundRatioGeomean, want)
	}
	if c.boundRatioMax != 2 {
		t.Errorf("bound ratio max %v, want 2 (the pinned cell's 8 does not count)", c.boundRatioMax)
	}
	vendor := []*kase{
		{sh: wse.Shape{Kind: wse.KindReduce, Alg: wse.Chain, P: 4, B: 1}, cycles: 300},
		{sh: auto, cycles: 100},
		{sh: wse.Shape{Kind: wse.KindReduce, Alg: wse.Chain, P: 8, B: 1}, cycles: 900}, // no auto partner
	}
	if got := vendorSpeedupMax(vendor); got != 3 {
		t.Errorf("vendor speed-up %v, want 3", got)
	}
}

func TestGridLattice(t *testing.T) {
	shapes := gridShapes()
	seen := make(map[wse.Shape]bool)
	kindsSeen := make(map[wse.Collective]bool)
	for _, sh := range shapes {
		if seen[sh] {
			t.Errorf("cell %+v twice", sh)
		}
		seen[sh] = true
		kindsSeen[sh.Kind] = true
		if err := sh.Validate(); err != nil {
			t.Errorf("cell %+v: %v", sh, err)
		}
		if pes(sh)*sh.B > gridMaxVolume {
			t.Errorf("cell %+v over the volume cap", sh)
		}
		switch sh.Kind {
		case wse.KindScatter, wse.KindGather, wse.KindReduceScatter, wse.KindAllGather:
			if sh.B < sh.P {
				t.Errorf("chunked cell %+v has empty chunks", sh)
			}
		}
	}
	if len(kindsSeen) != len(kinds) {
		t.Errorf("%d kinds on the lattice, want %d", len(kindsSeen), len(kinds))
	}
	if len(shapes) < 300 {
		t.Errorf("only %d cells", len(shapes))
	}
	n := len(shapes)
	if k := coprimeNear(n, n/3+1); k < n/3+1 || gcd(k, n) != 1 {
		t.Errorf("stride %d for %d cells", k, n)
	}
}

// BENCHMARK.json restates the tables of report.go and workloads.go for
// the driver; this keeps the two from drifting, and the file within the
// driver's limits.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(buf))
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if strings.Join(f.Command, " ") != "go run ./bench" || len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q, want %q with its reason", i, f.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") || !name.MatchString(w.name) {
			t.Errorf("workload %q: name or reason outside the limits", w.name)
		}
	}
	check := func(what string, got, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d metrics, want %d (at most %d)", what, len(got), len(want), limit)
		}
		seen := make(map[string]bool)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v, want %+v", what, i, got[i], want[i])
			}
			d := want[i]
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || seen[d.Name] {
				t.Errorf("%s: %+v outside the limits", what, d)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, 16)
	check("per_layer", f.PerLayer, perLayer, 128)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if d, ok := defNamed(endToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != "lower" || d.Bound != 0.25 {
		t.Errorf("setup_s is %+v", d)
	}
}

// The measuring path end to end on the cheapest workload: set-up, two
// short slices, the end-to-end metrics, then a traced pass and its spans.
func TestReplayTinyEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var errs bytes.Buffer
	b := &bench{env: &env{seed: 3, tmp: dir, prof: smokeProfile}, spans: filepath.Join(dir, "spans.jsonl"), stderr: &errs}
	w := workloadNamed("replay-tiny")
	in, err := w.setup(b.env)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	seqs := make([]int, w.callers)
	slices := []slice{runSlice(in, 0, 30*time.Millisecond, seqs), runSlice(in, 0, 30*time.Millisecond, seqs)}
	tm := pool(slices)
	if tm.failed != 0 || tm.samples < 2 || tm.firstErr != nil {
		t.Fatalf("timed: %d samples, %d failed, %v", tm.samples, tm.failed, tm.firstErr)
	}
	vals := endToEndOf(in, []float64{0.5, 0.4, 0.6}, tm).complete()
	for _, d := range endToEnd {
		if v := vals[d.Name]; !(v.Value > 0) || v.Unit != d.Unit {
			t.Errorf("%s = %+v: every end-to-end metric must be positive on every workload", d.Name, v)
		}
	}
	if vals["setup_s"].Value != 0.5 {
		t.Errorf("setup_s %v, want the median 0.5", vals["setup_s"].Value)
	}

	tr, err := b.tracedPass(w, in, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if tr.failed != 0 {
		t.Fatalf("traced pass: %d of %d failed: %v", tr.failed, tr.attempted, tr.firstErr)
	}
	layer := tr.m.complete()
	if len(layer) != len(perLayer) {
		t.Errorf("%d per-layer metrics, want %d", len(layer), len(perLayer))
	}
	for _, name := range []string{"fabric.run_ms", "fabric.steps", "plan.compile_ms", "planstore.decode_ms", "serve.handler_ms", "client.run_ms", "obs.fabric_exec_ms", "ledger.round_ms", "grid.reduce1d.model_err_pct"} {
		if !(layer[name].Value > 0) {
			t.Errorf("%s = %v", name, layer[name].Value)
		}
	}
	if got := layer["obs.traced_requests"].Value; got < 2 {
		t.Errorf("%v traced requests", got)
	}
	spans, err := os.ReadFile(b.spans)
	if err != nil {
		t.Fatal(err)
	}
	var first span
	if err := json.Unmarshal(spans[:bytes.IndexByte(spans, '\n')], &first); err != nil || first.Name != "op" || first.End <= first.Start {
		t.Errorf("first span %+v: %v", first, err)
	}
}
