package autogen

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/lowerbound"
	"repro/internal/model"
)

// fig1Grid is the parameter grid of Figure 1: rows 4..512 PEs (powers of
// two), columns 2^2..2^15 bytes, i.e. 1..8192 wavelets.
func fig1Grid() (ps, bs []int) {
	for p := 4; p <= 512; p *= 2 {
		ps = append(ps, p)
	}
	for b := 1; b <= 8192; b *= 2 {
		bs = append(bs, b)
	}
	return
}

// TestFig1Claims checks the optimality-ratio claims of §5.7 / Figure 1:
// Auto-Gen is at most 1.4× the lower bound everywhere; Two-Phase at most
// 2.4×; the fixed patterns reach roughly 5.9× somewhere; and no algorithm
// beats the lower bound.
func TestFig1Claims(t *testing.T) {
	ps, bs := fig1Grid()
	tb := For(512)
	lbt := lowerbound.For(512)
	pr := model.Default()
	worstAuto, worstTwoPhase, worstFixed := 0.0, 0.0, 0.0
	for _, p := range ps {
		for _, b := range bs {
			lb := lbt.Time(p, b, pr.TR)
			auto := tb.Time(p, b, pr.TR)
			if r := auto / lb; r > worstAuto {
				worstAuto = r
			}
			if auto < lb-1e-9 {
				t.Errorf("autogen(%d,%d)=%v beats bound %v", p, b, auto, lb)
			}
			if r := pr.TwoPhaseReduce(p, b) / lb; r > worstTwoPhase {
				worstTwoPhase = r
			}
			// Figure 1 evaluates star with the Lemma 5.1 form (energy
			// term included); see model.StarReduceUpper.
			fixed := func(name string) float64 {
				if name == "star" {
					return pr.StarReduceUpper(p, b)
				}
				return pr.Reduce1D(name, p, b)
			}
			bestFixed := fixed("star")
			for _, name := range model.ReduceNames[1:] {
				if v := fixed(name); v < bestFixed {
					bestFixed = v
				}
			}
			if auto > bestFixed+1e-6 {
				t.Errorf("autogen(%d,%d)=%v worse than best fixed %v", p, b, auto, bestFixed)
			}
			for _, name := range model.ReduceNames {
				if r := fixed(name) / lb; r > worstFixed {
					worstFixed = r
				}
			}
		}
	}
	if worstAuto > 1.45 {
		t.Errorf("worst autogen/LB ratio %.3f, paper claims ≤1.4", worstAuto)
	}
	if worstTwoPhase > 2.45 {
		t.Errorf("worst two-phase/LB ratio %.3f, paper claims ≤2.4", worstTwoPhase)
	}
	if worstFixed < 5.0 {
		t.Errorf("worst fixed-pattern ratio %.3f, paper reports up to ~5.9", worstFixed)
	}
	t.Logf("worst ratios: autogen %.3f (paper 1.4), twophase %.3f (paper 2.4), fixed %.3f (paper 5.9)",
		worstAuto, worstTwoPhase, worstFixed)
}

func TestTreesAreValidPreorder(t *testing.T) {
	tb := For(128)
	for _, p := range []int{1, 2, 3, 5, 16, 31, 64, 128} {
		for _, b := range []int{1, 8, 64, 1024} {
			tr := tb.Tree(p, b, model.Default().TR)
			if tr.Len() != p {
				t.Fatalf("tree(%d,%d) has %d vertices", p, b, tr.Len())
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("tree(%d,%d): %v", p, b, err)
			}
		}
	}
}

func TestTreeRespectsPlanBudgets(t *testing.T) {
	tb := For(256)
	for _, p := range []int{4, 16, 100, 256} {
		for _, b := range []int{1, 32, 512} {
			plan := tb.Optimize(p, b, model.Default().TR)
			tr := tb.Tree(p, b, model.Default().TR)
			if d := tr.Depth(); d > plan.Depth {
				t.Errorf("tree(%d,%d) depth %d exceeds plan depth %d", p, b, d, plan.Depth)
			}
			maxCh := 0
			for _, ch := range tr.Children() {
				if len(ch) > maxCh {
					maxCh = len(ch)
				}
			}
			if !plan.IsChain && maxCh > plan.Cont {
				t.Errorf("tree(%d,%d) max children %d exceeds contention budget %d", p, b, maxCh, plan.Cont)
			}
		}
	}
}

func TestPlanExtremes(t *testing.T) {
	tb := For(512)
	tr := model.Default().TR
	// Scalar reduce on many PEs: the generator should pick a low-depth,
	// high-contention (star-like) tree.
	scalar := tb.Optimize(512, 1, tr)
	if scalar.Depth > 8 {
		t.Errorf("scalar plan depth %d, want star-like", scalar.Depth)
	}
	// Huge vectors: the chain must win (contention 1).
	huge := tb.Optimize(512, 1<<20, tr)
	if !huge.IsChain {
		t.Errorf("huge-B plan is not chain: %+v", huge)
	}
}

func TestEnergyMatchesKnownPatterns(t *testing.T) {
	tb := For(64)
	// Chain energy: one hop per link.
	if got := tb.Energy(32, 31, 1); got != 31 {
		t.Errorf("chain energy e(32,31,1)=%d, want 31", got)
	}
	// Star energy: message i travels i hops.
	want := int64(0)
	for i := 1; i < 16; i++ {
		want += int64(i)
	}
	if got := tb.Energy(16, 1, 15); got != want {
		t.Errorf("star energy e(16,1,15)=%d, want %d", got, want)
	}
}

func TestTreeRunsOnSimulatorViaComm(t *testing.T) {
	// The generated tree must satisfy the structural constraints the
	// compiler enforces; a full end-to-end run lives in the wse package.
	tb := For(64)
	for _, p := range []int{7, 33, 64} {
		tr := tb.Tree(p, 256, 2)
		var c comm.Tree = tr
		if err := c.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// referenceBuild is the energy recursion as §5.5 writes it — every split i
// scanned for every (d, c, p) — kept as the oracle for Build's slope merge.
// It borrows Build's clamped caps so only the recursion itself is restated.
func referenceBuild(maxP int, caps Caps) *Table {
	t := Build(maxP, caps)
	ref := &Table{maxP: t.maxP, caps: t.caps, e: make([][][]int64, len(t.e))}
	for d := range ref.e {
		ref.e[d] = make([][]int64, len(t.e[d]))
		for c := range ref.e[d] {
			ref.e[d][c] = make([]int64, len(t.e[d][c]))
			for p := 2; p <= ref.maxP; p++ {
				ref.e[d][c][p] = inf
			}
		}
	}
	for d := 1; d < len(ref.e); d++ {
		for c := 1; c < len(ref.e[d]); c++ {
			cur, left, down := ref.e[d][c], ref.e[d][c-1], ref.e[d-1][c]
			for p := 2; p <= ref.maxP; p++ {
				best := inf
				for i := 1; i < p; i++ {
					l, r := left[i], down[p-i]
					if l >= inf || r >= inf {
						continue
					}
					if v := l + r + int64(i); v < best {
						best = v
					}
				}
				cur[p] = best
			}
		}
	}
	return ref
}

// checkAgainstReference asserts got is bit-identical to the reference table
// and that every row is convex from p = 1 over a finite prefix — the
// invariant the merge's exactness rests on.
func checkAgainstReference(t *testing.T, got, ref *Table) {
	t.Helper()
	if got.maxP != ref.maxP || got.caps != ref.caps || len(got.e) != len(ref.e) {
		t.Fatalf("table shape: got maxP %d caps %+v, reference maxP %d caps %+v", got.maxP, got.caps, ref.maxP, ref.caps)
	}
	for d := range ref.e {
		if len(got.e[d]) != len(ref.e[d]) {
			t.Fatalf("d=%d: %d contention rows, reference %d", d, len(got.e[d]), len(ref.e[d]))
		}
		for c := range ref.e[d] {
			row := got.e[d][c]
			if !slices.Equal(row, ref.e[d][c]) {
				t.Fatalf("maxP=%d caps=%+v: row e[%d][%d] differs from the reference scan", ref.maxP, ref.caps, d, c)
			}
			for p := 2; p < len(row); p++ {
				if row[p] >= inf {
					if p+1 < len(row) && row[p+1] < inf {
						t.Fatalf("e[%d][%d]: finite entry at p=%d after an infinite one", d, c, p+1)
					}
					continue
				}
				if p >= 3 && row[p]-row[p-1] < row[p-1]-row[p-2] {
					t.Fatalf("e[%d][%d] not convex at p=%d: %d, %d, %d", d, c, p, row[p-2], row[p-1], row[p])
				}
			}
		}
	}
}

func TestBuildMatchesReferenceScan(t *testing.T) {
	uncapped := Caps{DepthCap: 1 << 30, ContentionCap: 1 << 30}
	type buildCase struct {
		maxP int
		caps Caps
	}
	cases := []buildCase{
		{0, DefaultCaps()}, {1, DefaultCaps()}, {2, DefaultCaps()}, {3, DefaultCaps()},
		{1, uncapped}, {2, uncapped}, {3, uncapped}, {48, uncapped},
		{3, Caps{DepthCap: 1, ContentionCap: 1}}, {40, Caps{DepthCap: 0, ContentionCap: 0}},
		{97, Caps{DepthCap: 3, ContentionCap: 2}}, {200, DefaultCaps()},
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 24; i++ {
		maxP := 1 + rng.Intn(160)
		caps := Caps{DepthCap: 1 + rng.Intn(40), ContentionCap: 1 + rng.Intn(12)}
		if i%6 == 0 {
			maxP, caps = 1+rng.Intn(64), uncapped
		}
		cases = append(cases, buildCase{maxP, caps})
	}
	for _, c := range cases {
		checkAgainstReference(t, Build(c.maxP, c.caps), referenceBuild(c.maxP, c.caps))
	}
}

// TestPaperGridUnchangedByMerge pins what every caller sees: over the
// paper's grid the merged table yields the same plan and, through
// reconstruct's smallest-i tie-break, the same generated tree as the
// reference scan's table.
func TestPaperGridUnchangedByMerge(t *testing.T) {
	maxP := 512
	if testing.Short() {
		maxP = 64
	}
	got, ref := Build(maxP, DefaultCaps()), referenceBuild(maxP, DefaultCaps())
	checkAgainstReference(t, got, ref)
	tr := model.Default().TR
	for _, p := range []int{16, 64, 256, 512} {
		if p > maxP {
			continue
		}
		for _, b := range []int{1, 16, 256, 1024, 4096} {
			if g, r := got.Optimize(p, b, tr), ref.Optimize(p, b, tr); g != r {
				t.Errorf("Optimize(%d,%d) = %+v, reference %+v", p, b, g, r)
			}
			if g, r := got.Tree(p, b, tr).Parent, ref.Tree(p, b, tr).Parent; !slices.Equal(g, r) {
				t.Errorf("Tree(%d,%d) differs from the reference tree", p, b)
			}
		}
	}
}

// TestForGrowsConsistently: the shared table is rebuilt when a larger p
// arrives; the small table's entries must be the large one's.
func TestForGrowsConsistently(t *testing.T) {
	mu.Lock()
	cached = nil
	mu.Unlock()
	small := For(64)
	grown := For(512)
	if grown == small || grown.maxP < 512 {
		t.Fatalf("For(512) after For(64) returned a table for maxP=%d", grown.maxP)
	}
	direct := Build(512, DefaultCaps())
	checkAgainstReference(t, grown, direct)
	for d := range small.e {
		for c := range small.e[d] {
			if !slices.Equal(small.e[d][c], direct.e[d][c][:small.maxP+1]) {
				t.Fatalf("For(64) row e[%d][%d] disagrees with For(512)", d, c)
			}
		}
	}
}

var sinkTable *Table

// BenchmarkBuild times the table every auto choice, Predict and generated
// tree first waits for: the default-caps build at the paper's largest P.
func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkTable = Build(512, DefaultCaps())
	}
}

// TestOptimizeMemoIsTheScan: a remembered plan is the one the scan returns,
// the first time and every time after, from any goroutine.
func TestOptimizeMemoIsTheScan(t *testing.T) {
	tab := Build(64, DefaultCaps())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 2; p <= 64; p += 7 {
				for _, b := range []int{1, 17, 256} {
					for _, tr := range []int{0, 2} {
						if got, want := tab.Optimize(p, b, tr), tab.optimize(p, b, tr); got != want {
							t.Errorf("Optimize(%d, %d, %d) = %+v, the scan says %+v", p, b, tr, got, want)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
