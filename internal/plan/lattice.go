package plan

import "repro/internal/core"

// The conformance lattice: every row of the kind table, under every
// algorithm it accepts and under Auto, over the PE counts and vector lengths
// the paper's figures span. It is the one definition of "everywhere" that the
// model and the bound are held to: TestKindTableConformance asserts the
// triad bound <= predict, bound <= cycles, |cycles - predict| within the
// kind's tolerance on every cell, the Auto-cycles ratchet records what Auto
// costs on it, and experiments.Conformance prints the per-kind table the
// README quotes. (bench/grid.go restates the 1D cells and the square grids
// for the paper-grid workload until the benchmark is re-founded — ROADMAP
// item 1.)
var (
	latticeP = []int{16, 64, 256, 512}
	latticeB = []int{1, 16, 256, 1024, 4096}
	// latticeGrids are width×height: the figures' squares, then odd and
	// oblong grids, where a centre root's halves differ in length.
	latticeGrids = [][2]int{{8, 8}, {16, 16}, {32, 32}, {5, 7}, {8, 32}, {32, 8}, {17, 17}}
	latticeB2D   = []int{1, 16, 256}
)

const (
	// latticeMaxVolume caps a cell's PEs x B: simulation time grows with the
	// wavelets moved, and 2^17 keeps the paper's 512-PE, 1 KB corner.
	latticeMaxVolume = 1 << 17
	// latticeStarMaxB keeps the 1D Star to short vectors: its root takes P-1
	// whole vectors one after another, so long ones cost P*B cycles and tell
	// the figures nothing new.
	latticeStarMaxB = 64
)

// requestsOf lists base under each algorithm ki accepts, Auto included; base
// alone for the algorithm-free kinds.
func requestsOf(ki *KindInfo, base Request) []Request {
	base.Kind = ki.Kind
	var out []Request
	for _, a := range append([]core.Pattern{core.Auto}, ki.Algs...) {
		if ki.Algs != nil {
			r := base
			r.Alg = a
			out = append(out, r)
		}
	}
	for _, a := range append([]core.Pattern2D{core.Auto2D}, ki.Algs2D...) {
		if ki.Algs2D != nil {
			r := base
			r.Alg2D = a
			out = append(out, r)
		}
	}
	if out == nil {
		out = []Request{base}
	}
	return out
}

// Lattice lists the cells, kind by kind in table order. Cells a row cannot
// run are left out by its own Validate (the chunked kinds and the ring need
// B >= P).
func Lattice() []Request {
	var out []Request
	add := func(ki *KindInfo, base Request) {
		for _, r := range requestsOf(ki, base) {
			if r.Alg == core.Star && r.B > latticeStarMaxB || r.Validate() != nil {
				continue
			}
			out = append(out, r)
		}
	}
	for i := range Kinds {
		ki := &Kinds[i]
		if ki.Grid {
			for _, g := range latticeGrids {
				for _, b := range latticeB2D {
					if g[0]*g[1]*b <= latticeMaxVolume {
						add(ki, Request{Width: g[0], Height: g[1], B: b})
					}
				}
			}
			continue
		}
		for _, p := range latticeP {
			for _, b := range latticeB {
				if p*b <= latticeMaxVolume {
					add(ki, Request{P: p, B: b})
				}
			}
		}
	}
	return out
}

// Auto reports whether a run of r executes what the model picks: the
// deployment the paper advocates and the one its near-optimality claim is
// about. Kinds without algorithms have nothing to pick and count as Auto.
func (r Request) Auto() bool {
	switch ki := InfoOf(r.Kind); {
	case ki == nil:
		return false
	case ki.Algs != nil:
		return r.Alg == core.Auto
	case ki.Algs2D != nil:
		return r.Alg2D == core.Auto2D
	}
	return true
}
