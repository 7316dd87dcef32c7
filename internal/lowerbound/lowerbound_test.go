package lowerbound

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

func TestEnergySmallCases(t *testing.T) {
	tb := For(16)
	if got := tb.Energy(1, 5); got != 0 {
		t.Errorf("E*(1)=%d, want 0", got)
	}
	// Two neighbouring PEs: one message over one link.
	if got := tb.Energy(2, 1); got != 1 {
		t.Errorf("E*(2,1)=%d, want 1", got)
	}
	// Depth 0 cannot reduce more than one PE.
	if got := tb.Energy(3, 0); got < 1<<50 {
		t.Errorf("E*(3,0)=%d, want inf", got)
	}
}

func TestEnergyMonotoneInDepth(t *testing.T) {
	tb := For(128)
	for p := 2; p <= 128; p *= 2 {
		prev := tb.Energy(p, 1)
		for d := 2; d < p; d++ {
			cur := tb.Energy(p, d)
			if cur > prev {
				t.Fatalf("E*(%d,%d)=%d > E*(%d,%d)=%d", p, d, cur, p, d-1, prev)
			}
			prev = cur
		}
	}
}

func TestChainEnergyAchievesUnconstrainedBound(t *testing.T) {
	// With unconstrained depth the bound degenerates to one hop per link.
	tb := For(64)
	for _, p := range []int{2, 3, 8, 33, 64} {
		if got := tb.Energy(p, p-1); got != int64(p-1) {
			t.Errorf("E*(%d,%d)=%d, want %d", p, p-1, got, p-1)
		}
	}
}

func TestBoundBelowAlgorithms(t *testing.T) {
	tb := For(512)
	pr := model.Default()
	for _, p := range []int{4, 16, 64, 512} {
		for _, b := range []int{1, 16, 256, 4096} {
			lb := tb.Time(p, b, pr.TR)
			if lb <= 0 {
				t.Fatalf("T*(%d,%d)=%v", p, b, lb)
			}
			for _, name := range model.ReduceNames {
				alg := pr.Reduce1D(name, p, b)
				if name == "star" {
					// The refined star estimate drops the energy term
					// (perfect pipelining) and may dip below the
					// energy-based bound at B=1; Figure 1 uses the Lemma
					// 5.1 form, which must respect the bound.
					alg = pr.StarReduceUpper(p, b)
				}
				if alg < lb-1e-9 {
					t.Errorf("%s(%d,%d)=%v below bound %v", name, p, b, alg, lb)
				}
			}
		}
	}
}

func TestBoundApproachesChainForLargeB(t *testing.T) {
	tb := For(512)
	pr := model.Default()
	p, b := 512, 1<<20
	lb := tb.Time(p, b, pr.TR)
	chain := pr.ChainReduce(p, b)
	if ratio := chain / lb; ratio > 1.01 {
		t.Errorf("chain/LB = %v at huge B, want →1 (chain is optimal there)", ratio)
	}
}

// referenceBuild is Lemma 5.5's recursion as §5.6 writes it — every split i
// scanned for every (d, p), O(P³) in all — kept as the oracle for build's
// slope merges.
func referenceBuild(maxP int) [][]int64 {
	if maxP < 1 {
		maxP = 1
	}
	maxD := max(maxP-1, 1)
	e := make([][]int64, maxD+1)
	for d := range e {
		e[d] = make([]int64, maxP+1)
	}
	for p := 2; p <= maxP; p++ {
		e[0][p] = inf
	}
	for d := 1; d <= maxD; d++ {
		row, prev := e[d], e[d-1]
		for p := 2; p <= maxP; p++ {
			best := inf
			for i := 1; i < p; i++ {
				left, right := row[i], prev[p-i]
				if left >= inf || right >= inf {
					continue
				}
				if v := left + right + int64(min(i, p-i+1)); v < best {
					best = v
				}
			}
			row[p] = best
		}
	}
	return e
}

// checkAgainstReference asserts the built table is bit-identical to the
// reference scan's and that every row of depth ≥ 1 is convex from p = 1:
// the observed (not proven) property that keeps build on its linear path.
func checkAgainstReference(t *testing.T, got *Table, ref [][]int64) {
	t.Helper()
	if len(got.e) != len(ref) {
		t.Fatalf("maxP=%d: %d depth rows, reference %d", got.maxP, len(got.e), len(ref))
	}
	for d, row := range got.e {
		if !slices.Equal(row, ref[d]) {
			t.Fatalf("maxP=%d: row e[%d] differs from the reference scan", got.maxP, d)
		}
		for p := 3; d >= 1 && p < len(row); p++ {
			if row[p]-row[p-1] < row[p-1]-row[p-2] {
				t.Fatalf("maxP=%d: e[%d] not convex at p=%d: %d, %d, %d", got.maxP, d, p, row[p-2], row[p-1], row[p])
			}
		}
	}
}

func TestBuildMatchesReferenceScan(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 4, 5, 17, 64, 1100}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	rng := rand.New(rand.NewSource(56))
	for i := 0; i < 8; i++ {
		sizes = append(sizes, 1+rng.Intn(300))
	}
	for _, maxP := range sizes {
		checkAgainstReference(t, build(maxP), referenceBuild(maxP))
	}
}

// TestScanRowFinishesAnyRow drives the fallback build never takes on its
// own (no row has yet broken convexity): resuming any row from any index
// by the scan must reproduce the merged entries.
func TestScanRowFinishesAnyRow(t *testing.T) {
	tb := build(96)
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 64; n++ {
		d := 1 + rng.Intn(len(tb.e)-1)
		from := 2 + rng.Intn(tb.maxP-1)
		row := slices.Clone(tb.e[d])
		for p := from; p < len(row); p++ {
			row[p] = -1
		}
		scanRow(row, tb.e[d-1], from)
		if !slices.Equal(row, tb.e[d]) {
			t.Fatalf("scanRow(d=%d, from=%d) disagrees with the merged row", d, from)
		}
	}
}

// TestMergeRowReportsBrokenConvexity hands mergeRow a convex prev no real
// table contains (two PEs reduce for free), for which the derived row is
// not convex: mergeRow must stop at the break, and the scan must finish
// the row exactly, as build would.
func TestMergeRowReportsBrokenConvexity(t *testing.T) {
	prev := []int64{0, 0, 0, 1, 2, 4, 11, 20, 34, 48, inf, inf}
	want := make([]int64, len(prev))
	scanRow(want, prev, 2)
	row := make([]int64, len(prev))
	from := mergeRow(row, prev)
	if from != 3 { // want[1:4] = 0, 1, 1
		t.Fatalf("mergeRow reported %d for row %v, want the break at 3", from, want)
	}
	scanRow(row, prev, from)
	if !slices.Equal(row, want) {
		t.Fatalf("merge then scan gave %v, scan alone %v", row, want)
	}
}

// TestForGrowsConsistently: the shared table is rebuilt when a larger p
// arrives; the small table's entries must be the large one's.
func TestForGrowsConsistently(t *testing.T) {
	tableMu.Lock()
	cached = nil
	tableMu.Unlock()
	small := For(64)
	grown := For(512)
	if grown == small || grown.maxP < 512 {
		t.Fatalf("For(512) after For(64) returned a table for maxP=%d", grown.maxP)
	}
	direct := build(512)
	checkAgainstReference(t, grown, direct.e)
	for d, row := range small.e {
		if !slices.Equal(row, direct.e[d][:small.maxP+1]) {
			t.Fatalf("For(64) row e[%d] disagrees with For(512)", d)
		}
	}
	for p := 1; p <= 64; p++ {
		for d := 0; d < 80; d++ {
			if g, w := small.Energy(p, d), direct.Energy(p, d); g != w {
				t.Fatalf("Energy(%d,%d) = %d from For(64), %d from For(512)", p, d, g, w)
			}
		}
	}
}

var sinkTable *Table

// BenchmarkBuild times the table every Bound first waits for, at the size
// the benchmark harness builds it.
func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTable = build(512)
	}
}
