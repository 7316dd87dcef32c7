package experiments

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
)

// Entry is one row of the catalogue: a figure, table or claim of the
// evaluation, and how to build it. Exactly one of Sweep, Heatmaps and Table
// is set.
type Entry struct {
	// ID is what `wsefigures -fig` takes, what the artifact's first line
	// carries and what its CSV file is named.
	ID string
	// Paper is the figure or section of the paper the row reproduces.
	Paper string
	// Title heads the artifact of a sweep; Notes trail it. In both, {side}
	// and {sides} stand for the run's Config.Side2D and Config.Sides2D.
	Title string
	Notes []string
	// Sweep declares a measured-versus-predicted line figure.
	Sweep *Sweep
	// Heatmaps computes a model-only figure at the paper's full scale, under
	// the paper's control-free parameterisation (model.Default()).
	Heatmaps func() []*Heatmap
	// Table builds a row derived from other rows or from a run of its own;
	// figure returns the line figure of another row, built once per Run.
	Table func(figure func(id string) (*Figure, error)) (string, error)
}

// Sweep is a line figure as data: an x-axis and the curves drawn over it.
type Sweep struct {
	Axis   Axis
	Curves []Curve
}

// Axis is the x-axis of a sweep.
type Axis struct {
	Label string
	// Values are the positions swept, from the run's configuration.
	Values func(cfg Config) []int
	// Scale is what one unit of a value prints as: 4 on the byte axes, whose
	// values are vector lengths in 32-bit wavelets.
	Scale int
}

// Curve is one series of a sweep. A curve with a program sets At: every
// point is priced by Request.Predict — the kind table's lemma, so a figure's
// Predicted is the Report.Predicted of the same run by construction — and
// measured on the simulator where Measure allows. A curve without a program
// (the butterfly, the analytic ring) sets Model.
type Curve struct {
	Name string
	// At is the collective the curve runs at x, fabric options included.
	At func(cfg Config, x int) plan.Request
	// Measure says whether the point is simulated as well as predicted; nil
	// measures every point.
	Measure func(cfg Config, r plan.Request) bool
	// Model prices x for a curve that has no program.
	Model func(cfg Config, x int) float64
}

// The axes of the paper's sweeps.
var (
	vectorBytes = Axis{Label: "bytes", Values: func(cfg Config) []int { return cfg.Bs }, Scale: 4}
	peCounts    = Axis{Label: "PEs", Values: func(cfg Config) []int { return cfg.Ps }, Scale: 1}
	// gridSides always reaches the paper's 512×512; Config.Sides2D says how
	// far up it is measured.
	gridSides = fixedAxis("side", PowersOfTwo(4, 512)...)
	// ringPEs stops at 128: the ring's 2(P-1) rounds make longer rows slow
	// and tell nothing more.
	ringPEs = Axis{Label: "PEs", Scale: 1, Values: func(cfg Config) []int {
		return slices.DeleteFunc(slices.Clone(cfg.Ps), func(p int) bool { return p > 128 })
	}}
	// oddPEs are rows with an exact middle PE, for the root-placement row.
	oddPEs = Axis{Label: "PEs", Scale: 1, Values: func(cfg Config) []int {
		ps := slices.Clone(cfg.Ps)
		for i := range ps {
			ps[i]++
		}
		return ps
	}}
)

func fixedAxis(label string, values ...int) Axis {
	return Axis{Label: label, Values: func(Config) []int { return values }, Scale: 1}
}

// A site places x on a figure's geometry: the PE count — the grid side for
// a 2D kind — and the vector length in wavelets.
type site func(cfg Config, x int) (n, b int)

func lengthOnRow(cfg Config, b int) (int, int)  { return cfg.P1D, b }
func lengthOnGrid(cfg Config, b int) (int, int) { return cfg.Side2D, b }
func sizeAtFixedB(cfg Config, n int) (int, int) { return n, cfg.FixedB }
func ringSite(_ Config, p int) (int, int)       { return p, 4 * p } // chunks stay non-empty

func lengthOn(n int) site { return func(_ Config, b int) (int, int) { return n, b } }
func sizeAt(b int) site   { return func(_ Config, n int) (int, int) { return n, b } }

// request spells kind under alg on n PEs (an n×n grid for a 2D kind) with
// b-wavelet vectors. It fills the 1D and the 2D fields alike: a kind reads
// the ones its row names and ignores the rest.
func (cfg Config) request(kind plan.Kind, alg string, n, b int) plan.Request {
	return plan.Request{
		Kind: kind, Alg: core.Pattern(alg), Alg2D: core.Pattern2D(alg),
		P: n, Width: n, Height: n, B: b, Op: fabric.OpSum, Opt: cfg.Opt,
	}
}

// curve draws kind under alg over the sites where puts x.
func curve(name string, kind plan.Kind, alg string, where site, measure func(Config, plan.Request) bool) Curve {
	return Curve{Name: name, Measure: measure, At: func(cfg Config, x int) plan.Request {
		n, b := where(cfg, x)
		return cfg.request(kind, alg, n, b)
	}}
}

// perPattern draws one curve per algorithm, in the paper's legend order.
func perPattern[A ~string](kind plan.Kind, algs []A, suffix string, where site, measure func(Config, plan.Request) bool) []Curve {
	var curves []Curve
	for _, alg := range algs {
		curves = append(curves, curve(string(alg)+suffix, kind, string(alg), where, measure))
	}
	return curves
}

// perturbed draws a fixed collective while x turns one knob of the fabric.
func perturbed(name string, kind plan.Kind, alg string, n, b int, turn func(opt *fabric.Options, x int)) Curve {
	return Curve{Name: name, At: func(cfg Config, x int) plan.Request {
		r := cfg.request(kind, alg, n, b)
		turn(&r.Opt, x)
		return r
	}}
}

func wakeUp(opt *fabric.Options, cycles int) { opt.TaskActivation = cycles }

// The simulation caps. Star's simulation work is its energy Θ(B·P²), which
// dominates everything else in a sweep; Snake on big grids is Θ(B·P) work
// and dominated by its linear depth anyway. Predictions cover every point.
func isStar(r plan.Request) bool { return r.Alg == core.Star || r.Alg2D == core.XYStar }

func starLengthCap(cfg Config, r plan.Request) bool { return !isStar(r) || r.B <= cfg.StarBCap }

func starWorkCap(cfg Config, r plan.Request) bool { return !isStar(r) || r.P*r.B <= 512*cfg.StarBCap }

func measuredSides(cfg Config, r plan.Request) bool {
	return slices.Contains(cfg.Sides2D, r.Width) && (r.Alg2D != core.Snake || r.Width <= 32)
}

func evenRow(_ Config, r plan.Request) bool { return r.P%2 == 0 }

func never(Config, plan.Request) bool { return false }

// searchedXY says what the xy-autogen series of Figure 13 runs: not the
// paper's X-Y Auto-Gen but this repository's searched composition.
const searchedXY = "xy-autogen is this repository's searched composition: autogen.End's trees on rows and column, each column leaf streaming its row's last transfer up the column"

// Catalogue is the evaluation: every figure of the paper this repository
// regenerates, the headline claims read off them, and the extensions beyond
// the paper (the implemented ring, the ablations, the conformance table),
// in the order `wsefigures -fig all` prints them. Config.Run, cmd/wsefigures,
// BenchmarkCatalogue and the README's "Reproducing the paper" table all read
// this one table; a new figure is a new row.
var Catalogue = []Entry{
	{
		ID: "fig1", Paper: "Figure 1, §5.7",
		Title:    "optimality ratio of each 1D Reduce algorithm over the lower bound (model only)",
		Heatmaps: Fig1,
	},
	{
		ID: "fig8", Paper: "Figure 8, §6.3",
		Title:    "1D AllReduce: best fixed algorithm and its speedup over Chain+Bcast, and Auto-Gen's (model only)",
		Heatmaps: func() []*Heatmap { return []*Heatmap{Fig8(), Fig8AutoGen()} },
	},
	{
		ID: "fig10", Paper: "Figure 10, §7.6",
		Title:    "2D AllReduce: best algorithm and its speedup over X-Y Chain (model only)",
		Heatmaps: func() []*Heatmap { return []*Heatmap{Fig10()} },
	},
	{
		ID: "fig11a", Paper: "Figure 11a, §8.4",
		Title: "1D Broadcast, 512x1 PEs, increasing vector length",
		Sweep: &Sweep{Axis: vectorBytes, Curves: []Curve{
			curve("broadcast", plan.Broadcast1D, "", lengthOnRow, nil),
		}},
	},
	{
		ID: "fig11b", Paper: "Figure 11b, §8.5",
		Title: "1D Reduce, 512x1 PEs, increasing vector length (measured/predicted cycles)",
		Sweep: &Sweep{Axis: vectorBytes, Curves: perPattern(plan.Reduce1D, core.Patterns1D, "", lengthOnRow, starLengthCap)},
	},
	{
		ID: "fig11c", Paper: "Figure 11c, §8.6",
		Title: "1D AllReduce, 512x1 PEs, increasing vector length (measured/predicted cycles)",
		Notes: []string{"ring and butterfly are model-only, as in the paper (§8.6: the model shows they never win, saving the engineering effort)"},
		Sweep: &Sweep{Axis: vectorBytes, Curves: append(
			perPattern(plan.AllReduce1D, core.Patterns1D, "+bcast", lengthOnRow, starLengthCap),
			Curve{Name: "ring(model)", Model: func(cfg Config, b int) float64 { return cfg.params().RingAllReduce(cfg.P1D, b) }},
			Curve{Name: "butterfly(model)", Model: func(cfg Config, b int) float64 { return cfg.params().ButterflyAllReduce(cfg.P1D, b) }},
		)},
	},
	{
		ID: "fig12a", Paper: "Figure 12a, §8.4",
		Title: "1D Broadcast, 1 KB vector, increasing number of PEs",
		Sweep: &Sweep{Axis: peCounts, Curves: []Curve{
			curve("broadcast", plan.Broadcast1D, "", sizeAtFixedB, nil),
		}},
	},
	{
		ID: "fig12b", Paper: "Figure 12b, §8.5",
		Title: "1D Reduce, 1 KB vector, increasing number of PEs (measured/predicted cycles)",
		Sweep: &Sweep{Axis: peCounts, Curves: perPattern(plan.Reduce1D, core.Patterns1D, "", sizeAtFixedB, starWorkCap)},
	},
	{
		// The paper notes ring is mildly better only at 4 PEs and loses
		// everywhere else.
		ID: "fig12c", Paper: "Figure 12c, §8.6",
		Title: "1D AllReduce, 1 KB vector, increasing number of PEs (measured/predicted cycles)",
		Sweep: &Sweep{Axis: peCounts, Curves: append(
			perPattern(plan.AllReduce1D, core.Patterns1D, "+bcast", sizeAtFixedB, starWorkCap),
			Curve{Name: "ring(model)", Model: func(cfg Config, p int) float64 { return cfg.params().RingAllReduce(p, cfg.FixedB) }},
		)},
	},
	{
		// Predictions are reported at the measured side, so the relative
		// error is meaningful; fig13a-model covers the paper's scale.
		ID: "fig13a", Paper: "Figure 13a, §8.7",
		Title: "2D Reduce, {side}x{side} PEs, increasing vector length (measured/predicted cycles)",
		Notes: []string{"paper measures 512x512 on hardware; measured runs here use {side}x{side}, model covers 512x512 (fig13a-model)", searchedXY},
		Sweep: &Sweep{Axis: vectorBytes, Curves: perPattern(plan.Reduce2D, core.Patterns2D, "", lengthOnGrid, starLengthCap)},
	},
	{
		ID: "fig13b", Paper: "Figure 13b, §8.7",
		Title: "2D AllReduce, {side}x{side} PEs, increasing vector length (measured/predicted cycles)",
		Notes: []string{"measured at {side}x{side}; the paper's 512x512 shape is covered by the model (fig13b-model)", searchedXY},
		Sweep: &Sweep{Axis: vectorBytes, Curves: perPattern(plan.AllReduce2D, core.Patterns2D, "", lengthOnGrid, starLengthCap)},
	},
	{
		ID: "fig13c", Paper: "Figure 13c, §8.7",
		Title: "2D Reduce, 1 KB vector, increasing grid side (measured/predicted cycles)",
		Notes: []string{"measured grids: {sides}; larger sides are model-only", searchedXY},
		Sweep: &Sweep{Axis: gridSides, Curves: perPattern(plan.Reduce2D, core.Patterns2D, "", sizeAtFixedB, measuredSides)},
	},
	{
		// The scale at which the paper quotes its 3.27× (Reduce) and 2.54×
		// (AllReduce) improvements over X-Y Chain.
		ID: "fig13a-model", Paper: "Figure 13a at 512x512, §8.7",
		Title: "2D Reduce, 512x512 PEs (model only), increasing vector length",
		Notes: []string{searchedXY},
		Sweep: &Sweep{Axis: vectorBytes, Curves: perPattern(plan.Reduce2D, core.Patterns2D, "", lengthOn(512), never)},
	},
	{
		ID: "fig13b-model", Paper: "Figure 13b at 512x512, §8.7",
		Title: "2D AllReduce, 512x512 PEs (model only), increasing vector length",
		Notes: []string{searchedXY},
		Sweep: &Sweep{Axis: vectorBytes, Curves: perPattern(plan.AllReduce2D, core.Patterns2D, "", lengthOn(512), never)},
	},
	{
		// The paper analyses the ring AllReduce with the model, concludes it
		// is (almost) never the best choice on the WSE, and deliberately
		// skips the implementation. This row implements it anyway — in both
		// mappings of Figure 7 — and measures it against the chain+broadcast
		// the vendor would use: the model's predicted ordering matches the
		// simulator's at every point, which is why skipping it was safe.
		ID: "ring-validation", Paper: "beyond the paper: §8.6's ring, implemented",
		Title: "ring AllReduce (implemented as an extension) vs chain+bcast, B = 4P wavelets",
		Notes: []string{"the paper keeps ring model-only; this reproduction implements it to validate that decision"},
		Sweep: &Sweep{Axis: ringPEs, Curves: []Curve{
			curve("ring-simple", plan.AllReduce1D, string(core.Ring), ringSite, nil),
			curve("ring-distpres", plan.AllReduce1D, string(core.RingDP), ringSite, evenRow),
			curve("chain+bcast", plan.AllReduce1D, string(core.Chain), ringSite, nil),
		}},
	},
	{
		ID: "headline", Paper: "§1.3, §8.5-§8.7",
		Title: "the paper's headline speedups over the vendor's chain, read off fig11b, fig11c and the 512x512 projections",
		Table: func(figure func(string) (*Figure, error)) (string, error) {
			claims, err := Headline(figure)
			return RenderHeadline(claims), err
		},
	},

	// The ablations: one knob of the fabric or of an algorithm turned at a
	// fixed shape. The model prices T_R and nothing else of the fabric, so
	// the four fabric rows show how far a perturbed machine leaves it, not
	// how well it fits.
	{
		// The paper pins T_R = 2 by observing any other value degrades
		// prediction accuracy. The model moves the chain by Lemma 5.2's
		// (2T_R+2)(P-1) term; the simulator follows it at 1 and 2 and leaves
		// it at 0 and 4.
		ID: "ablation-tr", Paper: "§8.7 (T_R = 2), Lemma 5.2",
		Title: "ablation: ramp latency T_R, chain Reduce, 128 PEs, 1 KB",
		Sweep: &Sweep{Axis: fixedAxis("T_R", 0, 1, 2, 4), Curves: []Curve{
			perturbed("chain", plan.Reduce1D, "chain", 128, 256, func(opt *fabric.Options, tr int) {
				if opt.TR = tr; tr == 0 {
					opt.TR = -1 // Options spells a literal zero-latency ramp -1
				}
			}),
		}},
	},
	{
		// Depth 1 cannot sustain the one-wavelet-per-cycle pipeline; deeper
		// queues change nothing: the collectives are backpressure-
		// synchronised, not buffer-synchronised.
		ID: "ablation-queue", Paper: "§2.2 (the routers' input queues)",
		Title: "ablation: router queue depth, chain Reduce, 128 PEs, 1 KB",
		Sweep: &Sweep{Axis: fixedAxis("depth", 1, 2, 4, 16), Curves: []Curve{
			perturbed("chain", plan.Reduce1D, "chain", 128, 256, func(opt *fabric.Options, depth int) { opt.QueueCap = depth }),
		}},
	},
	{
		ID: "ablation-thermal", Paper: "§8.1 (thermal no-ops), §8.3",
		Title: "ablation: thermally inserted no-ops per 1000 cycles, Two-Phase Reduce, 64 PEs, 1 KB",
		Sweep: &Sweep{Axis: fixedAxis("noops/kcycle", 0, 10, 50), Curves: []Curve{
			perturbed("twophase", plan.Reduce1D, "twophase", 64, 256, func(opt *fabric.Options, perMille int) {
				opt.ThermalNoopRate = float64(perMille) / 1000
			}),
		}},
	},
	{
		// The charge lands on the critical path once per dependent transfer,
		// so it punishes depth: the vendor chain (depth P-1) degrades
		// fastest and the chain/Auto-Gen ratio grows with the wake-up cost.
		ID: "ablation-activation", Paper: "§2.2 (task activation), §8.5",
		Title: "ablation: task wake-up cycles per transfer, Reduce, 256 PEs, 256 B",
		Sweep: &Sweep{Axis: fixedAxis("cycles", 0, 25, 50, 100), Curves: []Curve{
			perturbed("chain", plan.Reduce1D, "chain", 256, 64, wakeUp),
			perturbed("autogen", plan.Reduce1D, "autogen", 256, 64, wakeUp),
		}},
	},
	{
		ID: "ablation-ring-mapping", Paper: "Figure 7, Lemma 6.1",
		Title: "ablation: the two ring mappings (one model cost), 64 PEs, increasing vector length",
		Sweep: &Sweep{Axis: fixedAxis("wavelets", 64, 256, 1024), Curves: []Curve{
			curve("ring-simple", plan.AllReduce1D, string(core.Ring), lengthOn(64), nil),
			curve("ring-distpres", plan.AllReduce1D, string(core.RingDP), lengthOn(64), nil),
		}},
	},
	{
		ID: "ablation-root", Paper: "§6.1 (root placement)",
		Title: "ablation: AllReduce rooted at the end or the middle of the row, Two-Phase, 256 B",
		Sweep: &Sweep{Axis: oddPEs, Curves: []Curve{
			curve("end-root", plan.AllReduce1D, "twophase", sizeAt(64), nil),
			curve("mid-root", plan.AllReduceMidRoot, "twophase", sizeAt(64), nil),
		}},
	},
	{
		// Lemma 5.4 motivates S = √P as the depth/energy balance point.
		ID: "ablation-groupsize", Paper: "Lemma 5.4 (S = √P)",
		Title: "ablation: Two-Phase group size S (model only), 256 PEs, 1 KB",
		Sweep: &Sweep{Axis: fixedAxis("S", 4, 8, 16, 32, 64), Curves: []Curve{
			{Name: "twophase(model)", Model: func(cfg Config, s int) float64 { return cfg.params().TwoPhaseReduceS(256, 256, s) }},
		}},
	},
	{
		ID: "conformance", Paper: "§8.7 (model error), Figure 1 measured; not a figure of the paper",
		Title: "model error, cycles/bound and Auto against the best algorithm, per collective kind over the conformance lattice",
		Table: func(func(string) (*Figure, error)) (string, error) {
			rows, err := Conformance()
			if err != nil {
				return "", err
			}
			return RenderConformance(rows), nil
		},
	},
}

// IDs lists the catalogue's rows in order.
func IDs() []string {
	ids := make([]string, len(Catalogue))
	for i, e := range Catalogue {
		ids[i] = e.ID
	}
	return ids
}

// Artifact is what a row builds.
type Artifact struct {
	ID string
	// Text is the row as wsefigures prints it.
	Text string
	// Figure is the line figure behind Text; nil for heatmaps and tables.
	Figure *Figure
}

// Run builds the named rows of the catalogue under cfg, in the order given.
// A row is built at most once per call, so the headline row reads the figures
// a `Run(IDs()...)` has already measured. Model-only heatmaps always run at
// the paper's full scale; measured rows follow cfg.
func (cfg Config) Run(ids ...string) ([]*Artifact, error) {
	built := map[string]*Artifact{}
	var build func(id string) (*Artifact, error)
	build = func(id string) (*Artifact, error) {
		if a := built[id]; a != nil {
			return a, nil
		}
		i := slices.IndexFunc(Catalogue, func(e Entry) bool { return e.ID == id })
		if i < 0 {
			return nil, fmt.Errorf("experiments: no row %q in the catalogue (rows: %s)", id, strings.Join(IDs(), ", "))
		}
		e := Catalogue[i]
		a := &Artifact{ID: id}
		var err error
		switch {
		case e.Sweep != nil:
			if a.Figure, err = cfg.sweep(e); err == nil {
				a.Text = a.Figure.Table() + "\n"
			}
		case e.Heatmaps != nil:
			for _, h := range e.Heatmaps() {
				a.Text += h.Render() + "\n"
			}
		default:
			a.Text, err = e.Table(func(id string) (*Figure, error) {
				a, err := build(id)
				if err != nil {
					return nil, err
				}
				return a.Figure, nil
			})
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		built[id] = a
		return a, nil
	}
	arts := make([]*Artifact, len(ids))
	for i, id := range ids {
		a, err := build(id)
		if err != nil {
			return nil, err
		}
		arts[i] = a
	}
	return arts, nil
}

// sweep executes a row's Sweep: the one loop behind every line figure.
func (cfg Config) sweep(e Entry) (*Figure, error) {
	expand := strings.NewReplacer("{side}", strconv.Itoa(cfg.Side2D), "{sides}", fmt.Sprint(cfg.Sides2D)).Replace
	fig := &Figure{ID: e.ID, Title: expand(e.Title), XLabel: e.Sweep.Axis.Label}
	for _, n := range e.Notes {
		fig.Notes = append(fig.Notes, expand(n))
	}
	axis := e.Sweep.Axis
	xs := axis.Values(cfg)
	for _, c := range e.Sweep.Curves {
		s := Series{Name: c.Name}
		for _, x := range xs {
			pt := Point{X: axis.Scale * x, Measured: math.NaN()}
			if c.At == nil {
				pt.Predicted = c.Model(cfg, x)
			} else {
				req := c.At(cfg, x)
				pt.Predicted = req.Predict()
				if c.Measure == nil || c.Measure(cfg, req) {
					m, err := measured(req)
					if err != nil {
						return nil, err
					}
					pt.Measured = m
				}
			}
			s.Points = append(s.Points, pt)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
