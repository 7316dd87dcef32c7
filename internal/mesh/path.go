package mesh

import "fmt"

// Path is an ordered sequence of pairwise-adjacent PE coordinates. All 1D
// collectives operate on a path; index 0 is the "west end" (towards the
// root of a reduction) regardless of the path's physical shape.
type Path []Coord

// Validate checks that consecutive path entries are mesh neighbours and
// that no coordinate repeats.
func (p Path) Validate() error {
	seen := newVisits(p)
	for i, c := range p {
		if seen.add(c) {
			return fmt.Errorf("mesh: path visits %v twice", c)
		}
		if i > 0 && p[i-1].Manhattan(c) != 1 {
			return fmt.Errorf("mesh: path step %d: %v not adjacent to %v", i, c, p[i-1])
		}
	}
	return nil
}

// visits is the set of coordinates a path has entered: a bit per cell of the
// path's bounding box, or a map where the box holds more than 64 cells an
// entry (a path that winds diagonally, or one with a gap far off it).
type visits struct {
	lo   Coord
	w    int
	bits []uint64
	m    map[Coord]struct{}
}

func newVisits(p Path) visits {
	if len(p) == 0 {
		return visits{}
	}
	lo, hi := p[0], p[0]
	for _, c := range p[1:] {
		lo = Coord{min(lo.X, c.X), min(lo.Y, c.Y)}
		hi = Coord{max(hi.X, c.X), max(hi.Y, c.Y)}
	}
	w, h, cells := hi.X-lo.X+1, hi.Y-lo.Y+1, 64*len(p)
	if w < 1 || h < 1 || w > cells || h > cells/w { // too large, or overflowed
		return visits{m: make(map[Coord]struct{}, len(p))}
	}
	return visits{lo: lo, w: w, bits: make([]uint64, (w*h+63)/64)}
}

// add marks c visited and reports whether it was already.
func (v *visits) add(c Coord) bool {
	if v.m != nil {
		_, dup := v.m[c]
		v.m[c] = struct{}{}
		return dup
	}
	b := (c.Y-v.lo.Y)*v.w + c.X - v.lo.X
	dup := v.bits[b/64]&(1<<(b%64)) != 0
	v.bits[b/64] |= 1 << (b % 64)
	return dup
}

// TowardStart returns the direction from p[i] to p[i-1], i.e. the
// "logical west" of the path at index i.
func (p Path) TowardStart(i int) Direction { return p[i].DirTo(p[i-1]) }

// TowardEnd returns the direction from p[i] to p[i+1], the "logical east".
func (p Path) TowardEnd(i int) Direction { return p[i].DirTo(p[i+1]) }

// Row returns the path of n PEs in row y starting at x0 and extending east.
// Index 0 (the reduce root end) is the westmost PE.
func Row(y, x0, n int) Path {
	p := make(Path, n)
	for i := range p {
		p[i] = Coord{x0 + i, y}
	}
	return p
}

// Column returns the path of n PEs in column x starting at y0, extending
// south. Index 0 is the northmost PE.
func Column(x, y0, n int) Path {
	p := make(Path, n)
	for i := range p {
		p[i] = Coord{x, y0 + i}
	}
	return p
}

// Snake returns the boustrophedon path covering an m×n grid (width n PEs,
// height m PEs) starting at (0,0): row 0 eastwards, row 1 westwards, and so
// on, so consecutive path entries are always mesh neighbours. This is the
// mapping of the paper's Snake Reduce (§7.3, Figure 9b).
func Snake(m, n int) Path {
	p := make(Path, 0, m*n)
	for y := 0; y < m; y++ {
		if y%2 == 0 {
			for x := 0; x < n; x++ {
				p = append(p, Coord{x, y})
			}
		} else {
			for x := n - 1; x >= 0; x-- {
				p = append(p, Coord{x, y})
			}
		}
	}
	return p
}
