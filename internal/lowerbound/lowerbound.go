// Package lowerbound implements the paper's Reduce runtime lower bound
// (§5.6): a dynamic program over Lemma 5.5's energy recursion
//
//	E*(P,1,D) ≥ min_{0<i<P} E*(i,1,D) + E*(P−i,1,D−1) + min(i, P−i+1)
//
// combined into
//
//	T*(P,B) ≥ min_D  B·E*(P,1,D)/(P−1) + P−1 + D·(2·T_R+1).
//
// Contention is deliberately omitted (it only strengthens algorithms'
// costs, not the bound), and vector energy is at least B times scalar
// energy. The optimality-ratio heatmaps of Figure 1 divide each
// algorithm's predicted runtime by this bound.
//
// Building the table. §5.6 solves the recursion in O(P³): P depths, P
// sizes, P splits each. The split scan is avoidable. Since
// min(i, P−i+1) = min(i, j+1) with j = P−i, a row is the smaller of two
// min-plus convolutions of itself with the previous depth's row,
//
//	E*(P,1,D) = min( min_{i+j=P} (E*(i,1,D)+i) + E*(j,1,D−1),
//	                 min_{i+j=P} E*(i,1,D) + (E*(j,1,D−1)+j+1) ),
//
// and the min-plus convolution of two convex sequences is found by
// merging their increments in sorted order, one step per P. The row feeds
// itself, so each merge runs online: the step to P reads only entries
// below P. That makes a row O(P) and the table O(P²) — provided the rows
// are convex. Unlike the Auto-Gen table's, this is observed, not proven
// (the minimum of two convex sequences need not be convex), so build
// checks every entry's second difference as it writes it; should one ever
// go negative, that row and every deeper one are finished by the scan as
// written. The table is exact either way; every table tried (P up to
// 3000) has come out convex.
package lowerbound

import (
	"math"
	"sync"
)

const inf = int64(1) << 60

// Table memoises the scalar energy DP E*(P,1,D) for all P up to a maximum
// and all depths up to P−1; it is built once and shared.
type Table struct {
	maxP int
	// e[d][p] = E*(p, 1, min(d, p-1)); d ranges 0..maxP-1, p ranges 0..maxP.
	e [][]int64
}

var (
	tableMu sync.Mutex
	cached  *Table
)

// For returns a table covering at least maxP PEs, reusing a previously
// built one when possible.
func For(maxP int) *Table {
	tableMu.Lock()
	defer tableMu.Unlock()
	if cached != nil && cached.maxP >= maxP {
		return cached
	}
	cached = build(maxP)
	return cached
}

func build(maxP int) *Table {
	if maxP < 1 {
		maxP = 1
	}
	maxD := maxP - 1
	if maxD < 1 {
		maxD = 1
	}
	e := make([][]int64, maxD+1)
	for d := range e {
		e[d] = make([]int64, maxP+1)
	}
	// Depth 0: only a single PE can "reduce" without any message.
	for p := 2; p <= maxP; p++ {
		e[0][p] = inf
	}
	convex := true // every row so far passed mergeRow's check
	for d := 1; d <= maxD; d++ {
		row, prev := e[d], e[d-1]
		row[1] = 0
		from := 2
		if convex {
			from = mergeRow(row, prev)
			convex = from == len(row)
		}
		scanRow(row, prev, from)
	}
	return &Table{maxP: maxP, e: e}
}

// mergeRow fills row[p] = E*(p,1,D) for p = 2, 3, … from prev = E*(·,1,D−1)
// by the two online slope merges of the package comment, checking each
// entry's second difference as it is written. It returns len(row) when the
// whole row came out convex, else the index of the first entry that broke
// convexity: entries below it are exact, scanRow must finish from there.
func mergeRow(row, prev []int64) int {
	if len(row) < 3 {
		return len(row)
	}
	// (ia, ja) minimises (row[i]+i) + prev[j] and (ib, jb) minimises
	// row[i] + (prev[j]+j+1), both over i+j = p with i, j ≥ 1. Advancing i
	// reads row[i+1] with i+1 ≤ p−1: already written, and finite because a
	// star reduces any p within depth 1. Only prev can run out (D−1 = 0).
	ia, ja, ib, jb := 1, 1, 1, 1
	row[2] = 1 // row[1] + prev[1] + min(1, 2)
	for p := 3; p < len(row); p++ {
		if prev[ja+1] >= inf || row[ia+1]-row[ia]+1 <= prev[ja+1]-prev[ja] {
			ia++
		} else {
			ja++
		}
		if prev[jb+1] >= inf || row[ib+1]-row[ib] <= prev[jb+1]-prev[jb]+1 {
			ib++
		} else {
			jb++
		}
		v := row[ia] + int64(ia) + prev[ja]
		if w := row[ib] + prev[jb] + int64(jb) + 1; w < v {
			v = w
		}
		row[p] = v
		if v-row[p-1] < row[p-1]-row[p-2] {
			return p
		}
	}
	return len(row)
}

// scanRow computes row[p] for p ≥ from by the recursion as written: a scan
// over every split i. It is the fallback that finishes a table whose rows
// stop being convex, where the slope merge no longer applies.
func scanRow(row, prev []int64, from int) {
	for p := from; p < len(row); p++ {
		best := inf
		for i := 1; i < p; i++ {
			left := row[i] // E*(i,1,D): the root's earlier sub-reduce keeps depth D
			if left >= inf {
				continue
			}
			right := prev[p-i] // E*(P−i,1,D−1): the final sender's subtree
			if right >= inf {
				continue
			}
			extra := int64(i)
			if r := int64(p - i + 1); r < extra {
				extra = r
			}
			if v := left + right + extra; v < best {
				best = v
			}
		}
		row[p] = best
	}
}

// Energy returns E*(p,1,d), the minimum energy to reduce a scalar over p
// consecutive PEs with depth at most d. Depths beyond p−1 cannot help and
// are clamped.
func (t *Table) Energy(p, d int) int64 {
	if p <= 1 {
		return 0
	}
	if d < 0 {
		return inf
	}
	if d > p-1 {
		d = p - 1
	}
	if d >= len(t.e) {
		d = len(t.e) - 1
	}
	return t.e[d][p]
}

// Time returns the lower bound T*(p,b) in cycles for ramp latency tr,
// minimising over all depths.
func (t *Table) Time(p, b, tr int) float64 {
	if p <= 1 {
		return 0
	}
	ramp := float64(2*tr + 1)
	best := math.Inf(1)
	for d := 1; d <= p-1; d++ {
		en := t.Energy(p, d)
		if en >= inf {
			continue
		}
		v := float64(b)*float64(en)/float64(p-1) + float64(p-1) + float64(d)*ramp
		if v < best {
			best = v
		}
	}
	return best
}
