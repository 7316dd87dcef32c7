package plan

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/auto_cycles.golden")

// latticeCell is one lattice request with what its one run returned.
type latticeCell struct {
	req       Request
	alg       string // what the plan lowered: its algorithm ("" for a kind with one schedule), after its kind where Auto moved it
	cycles    int64
	predicted float64
}

func runCell(req Request) (latticeCell, error) {
	p, err := Compile(req)
	if err != nil {
		return latticeCell{}, fmt.Errorf("%v: Compile: %w", KeyOf(req), err)
	}
	rep, err := p.Execute(req.Inputs(ramp))
	if err != nil {
		return latticeCell{}, fmt.Errorf("%v: Execute: %w", KeyOf(req), err)
	}
	c := latticeCell{req: req, cycles: rep.Cycles, predicted: rep.Predicted}
	switch ki := InfoOf(p.Kind); {
	case ki.Algs2D != nil:
		c.alg = string(p.Alg2D)
	case ki.auto != nil: // every other kind that chooses names its schedule in Alg
		c.alg = string(p.Alg)
	}
	if p.Kind != req.Kind {
		c.alg = string(p.Kind) + "/" + c.alg
	}
	return c, nil
}

// latticeRuns runs the lattice once per test binary: the conformance walk and
// the Auto-cycles ratchet read the same cells. Under the race detector it is
// every seventh cell (the walk costs seconds as it is).
var latticeRuns = sync.OnceValues(func() ([]latticeCell, error) {
	stride := 1
	if raceEnabled {
		stride = 7
	}
	var out []latticeCell
	for i, req := range Lattice() {
		if i%stride != 0 {
			continue
		}
		c, err := runCell(req)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
})

// modelTolerancePct is how far a kind's measured cycles may sit from its
// prediction anywhere on the lattice, in percent of the measurement: the
// worst cell measured when the entry was written, rounded up. The reduce
// families are priced by the critical path of their trees and are exact on
// most cells; their worst are Two-Phase cells, a few cycles of link sharing
// on a short run — 4 of 74 at 16 PEs in 1D, 7 of 196 on the middle root's
// halves at 64, and the same in the Reduce under a 16-PE ReduceScatter. In 2D
// the sharing happens twice, rows then column: xy-twophase at 16×16, B = 16
// is 7 cycles under on a 129-cycle Reduce and on the 173-cycle AllReduce
// around it — a cycle more than before the hand-off was priced, when the one
// cycle every X-Y form was over hid one of the seven. A binomial tree on a few
// PEs more than a power of two shares links too: xy-tree at 17×17, B = 16, is
// 12 cycles under on a 193-cycle Reduce. The centre root is exact, and so are
// floods, Scatter, Gather, the ring phases and every AllGather schedule,
// balanced chunks or not, and the split but for its columns' own AllReduce.
var modelTolerancePct = map[Kind]float64{
	Reduce1D:         6, // 5.41
	AllReduce1D:      4, // 3.64
	AllReduceMidRoot: 6, // 5.81
	Reduce2D:         7, // 6.22
	AllReduce2D:      5, // 4.04
	Broadcast1D:      0,
	Broadcast2D:      0,
	Scatter:          0,
	Gather:           0,
	ReduceScatter:    4, // 3.67, the tree through the root; its ring is exact (tolerancePct)
	AllGather:        0,
}

// autoSlack is how much longer than the best pinned schedule of the same
// collective, geometry and vector length an Auto run may take. Auto ranks by
// the model, and the model is a lower estimate where transfers share links,
// so a Two-Phase tree priced a few cycles under its run can take a cell from
// a tree that would have run those few cycles faster.
const autoSlack = 0.06

// tolerancePct is the cell's entry of modelTolerancePct — unless it ran the
// ring, whose phases share no link and are exact under every kind, or the
// middle root's fold, a chain and a flood, exact on every cell: the
// entries of ReduceScatter and AllReduce1D are for their trees (and ring-dp,
// the mapping that runs one cycle under the cost the two share).
func tolerancePct(c latticeCell) float64 {
	if c.alg == string(core.Ring) || c.alg == string(core.Fold) {
		return 0
	}
	return modelTolerancePct[c.req.Kind]
}

// conformLattice holds every row × algorithm × (P, B) of the lattice to the
// model and the bound: the prediction is finite, is the plan's Predicted bit
// for bit without resolving first, sits at or above the bound and within the
// kind's tolerance of the measurement; the measurement sits at or above the
// bound; and Auto is within autoSlack of the best pinned schedule — for an
// AllReduce along a row that is every tree under either root and both rings,
// for ReduceScatter and AllGather (conformChunked) every schedule they pick
// from.
func conformLattice(t *testing.T) {
	cells, err := latticeRuns()
	if err != nil {
		t.Fatal(err)
	}
	type site struct {
		kind       Kind
		p, w, h, b int
	}
	auto, pinned := map[site]int64{}, map[site]int64{}
	seen := map[Kind]bool{}
	for _, c := range cells {
		name := KeyOf(c.req).String()
		seen[c.req.Kind] = true
		predict, bound, cycles := c.req.Predict(), c.req.Bound(), float64(c.cycles)
		if math.IsNaN(predict) || math.IsInf(predict, 0) {
			t.Errorf("%s: Predict = %v", name, predict)
			continue
		}
		if math.Float64bits(c.predicted) != math.Float64bits(predict) {
			t.Errorf("%s: Report.Predicted %v, Predict %v", name, c.predicted, predict)
		}
		if math.IsNaN(bound) || bound <= 0 || bound > predict || bound > cycles {
			t.Errorf("%s: bound %v, predicted %v, measured %d cycles", name, bound, predict, c.cycles)
		}
		if e := 100 * math.Abs(cycles-predict) / cycles; e > tolerancePct(c) {
			t.Errorf("%s under %q: predicted %v, measured %d cycles: off by %.2f%%, the tolerance is %v%%",
				name, c.alg, predict, c.cycles, e, tolerancePct(c))
		}
		if ki := InfoOf(c.req.Kind); ki.Algs == nil && ki.Algs2D == nil {
			if ki.auto != nil {
				conformChunked(t, c)
			}
			continue
		}
		at := site{c.req.Kind, c.req.P, c.req.Width, c.req.Height, c.req.B}
		if c.req.Kind == AllReduceMidRoot && !c.req.Auto() {
			// A pinned middle root is also a schedule of the row's AllReduce.
			ar := at
			ar.kind = AllReduce1D
			if best, ok := pinned[ar]; !ok || c.cycles < best {
				pinned[ar] = c.cycles
			}
		}
		if c.req.Auto() {
			auto[at] = c.cycles
		} else if best, ok := pinned[at]; !ok || c.cycles < best {
			pinned[at] = c.cycles
		}
	}
	for at, cycles := range auto {
		if best, ok := pinned[at]; ok && float64(cycles) > (1+autoSlack)*float64(best) {
			t.Errorf("%+v: Auto runs %d cycles, the best pinned algorithm %d", at, cycles, best)
		}
	}
	for i := range Kinds {
		if !seen[Kinds[i].Kind] {
			t.Errorf("the lattice holds no cell of %s", Kinds[i].Kind)
		}
	}
}

// conformChunked holds a ReduceScatter or AllGather cell to every schedule
// it picks from, each built directly through core and run on the simulator:
// the run took no longer than any of them. ReduceScatter picks from the ring
// phase and the composition through the root, AllGather from
// core.AllGatherPatterns.
func conformChunked(t *testing.T, c latticeCell) {
	t.Helper()
	req := c.req
	var schedules []core.Pattern
	switch req.Kind {
	case ReduceScatter:
		viaRoot, _ := core.BestReduce1D(req.P, req.B, core.Params(req.Opt))
		schedules = []core.Pattern{core.Ring, viaRoot}
	case AllGather:
		schedules = core.AllGatherPatterns
	default:
		t.Fatalf("%s chooses a schedule this test does not know", req.Kind)
	}
	for _, alg := range schedules {
		rep, err := runSchedule(req, alg, req.Inputs(ramp))
		if err != nil {
			t.Fatal(err)
		}
		if c.cycles > rep.Cycles {
			t.Errorf("%s p=%d b=%d: ran %s in %d cycles, %s takes %d", req.Kind, req.P, req.B, c.alg, c.cycles, alg, rep.Cycles)
		}
	}
}

// runSchedule runs a ReduceScatter or AllGather request under the schedule
// alg, built directly through core — not the one Auto would pick — with the
// schedule's own estimate as the report's Predicted.
func runSchedule(req Request, alg core.Pattern, inputs [][]float32) (*core.Report, error) {
	pr := core.Params(req.Opt)
	p := &Plan{Kind: req.Kind, P: req.P, B: req.B, Opt: req.Opt.Canonical(), Spec: fabric.NewSpec(req.P, 1)}
	var err error
	switch req.Kind {
	case ReduceScatter:
		err = core.BuildReduceScatterInto(p.Spec, alg, req.P, req.B, pr, req.Op)
		p.Predicted = core.PredictReduceScatter(alg, req.P, req.B, pr)
	case AllGather:
		err = core.BuildAllGatherInto(p.Spec, alg, req.P, req.B)
		p.Predicted = core.PredictAllGather(alg, req.P, req.B, pr)
	default:
		err = fmt.Errorf("%s has no schedules to pin", req.Kind)
	}
	if err == nil {
		var rep *core.Report
		if rep, err = p.ExecuteUnpooled(inputs); err == nil {
			return rep, nil
		}
	}
	return nil, fmt.Errorf("%s p=%d b=%d under %s: %w", req.Kind, req.P, req.B, alg, err)
}

// benchAutoShapes restates the Auto and algorithm-free shapes of the five
// fixed benchmark workloads (bench/workloads.go; the sixth, paper-grid, is
// the lattice), so the ratchet below covers what the benchmark's sim_cycles
// are made of.
func benchAutoShapes() []Request {
	row := func(k Kind, p, b int) Request { return Request{Kind: k, Alg: core.Auto, P: p, B: b} }
	grid := func(k Kind, side, b int) Request {
		return Request{Kind: k, Alg2D: core.Auto2D, Width: side, Height: side, B: b}
	}
	return []Request{
		// replay-fabric
		row(Reduce1D, 512, 256), row(AllReduce1D, 256, 512), row(Broadcast1D, 512, 512), grid(Reduce2D, 32, 64),
		// replay-tiny
		row(Reduce1D, 16, 16), row(AllReduce1D, 16, 16), row(Broadcast1D, 16, 16), row(Scatter, 16, 16),
		row(Gather, 16, 16), row(ReduceScatter, 16, 16), row(AllGather, 16, 16), grid(Reduce2D, 4, 16),
		grid(AllReduce2D, 4, 16), grid(Broadcast2D, 4, 16), row(Reduce1D, 16, 1), row(AllReduce1D, 16, 1),
		grid(AllReduce2D, 4, 1), row(Broadcast1D, 16, 1),
		// cold-compile, cold-store
		row(Reduce1D, 512, 4), row(AllReduce1D, 256, 4), row(Broadcast1D, 512, 4), grid(Reduce2D, 32, 4),
		grid(AllReduce2D, 32, 4), grid(Broadcast2D, 32, 4), row(Gather, 64, 64),
		// wire-serve
		row(AllReduce1D, 64, 256),
	}
}

// autoName names a shape the way the golden file does: three fields.
func autoName(r Request) string {
	if InfoOf(r.Kind).Grid {
		return fmt.Sprintf("%s %dx%d b=%d", r.Kind, r.Width, r.Height, r.B)
	}
	return fmt.Sprintf("%s p=%d b=%d", r.Kind, r.P, r.B)
}

// TestAutoCyclesRatchet pins what the model's choice costs: one line per
// Auto or algorithm-free shape of the benchmark workloads and of the lattice
// — the algorithm Auto resolved to and the cycles it ran — in
// testdata/auto_cycles.golden. A shape whose count rises fails; any other
// difference (a count fell, Auto chose differently, a shape came or went)
// asks for -update, so the file stays current and a PR's diff of it is the
// list of what got faster.
func TestAutoCyclesRatchet(t *testing.T) {
	if raceEnabled {
		t.Skip("needs the whole lattice")
	}
	cells, err := latticeRuns()
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		name, alg string
		cycles    int64
	}
	var now []entry
	have := map[string]bool{}
	add := func(c latticeCell) {
		if name := autoName(c.req); c.req.Auto() && !have[name] {
			have[name] = true
			now = append(now, entry{name, cmp.Or(c.alg, "-"), c.cycles})
		}
	}
	for _, req := range benchAutoShapes() {
		c, err := runCell(req)
		if err != nil {
			t.Fatal(err)
		}
		add(c)
	}
	for _, c := range cells {
		add(c)
	}

	path := filepath.Join("testdata", "auto_cycles.golden")
	if *updateGolden {
		var b strings.Builder
		for _, e := range now {
			fmt.Fprintf(&b, "%s %s %d\n", e.name, e.alg, e.cycles)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/plan -run TestAutoCyclesRatchet -update` to generate)", err)
	}
	golden := map[string]entry{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e entry
		var geom, b string
		if _, err := fmt.Sscan(line, &e.name, &geom, &b, &e.alg, &e.cycles); err != nil {
			t.Fatalf("%s: malformed line %q: %v", path, line, err)
		}
		e.name += " " + geom + " " + b
		golden[e.name] = e
	}
	stale := len(golden) != len(now)
	for _, e := range now {
		switch was, ok := golden[e.name]; {
		case !ok:
			stale = true
		case e.cycles > was.cycles:
			t.Errorf("%s: Auto now runs %s in %d cycles, it ran %s in %d", e.name, e.alg, e.cycles, was.alg, was.cycles)
		case e != was:
			t.Logf("%s: %s %d, was %s %d", e.name, e.alg, e.cycles, was.alg, was.cycles)
			stale = true
		}
	}
	if stale && !t.Failed() {
		t.Errorf("%s is out of date (see the log; no count rose): rerun with -update and commit the diff", path)
	}
}
