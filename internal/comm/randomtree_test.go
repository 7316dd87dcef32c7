package comm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/mesh"
)

// randomPreorderTree generates a uniformly-random-ish pre-order tree of n
// vertices: the root's children partition the remaining vertices into
// contiguous blocks, recursively. This is exactly the space of executions
// the Auto-Gen generator searches (§5.5), so the compiler must handle
// every such tree, not just the named patterns.
func randomPreorderTree(rng *rand.Rand, n int) Tree {
	parent := make([]int, n)
	parent[0] = -1
	var fill func(base, size int)
	fill = func(base, size int) {
		rest := size - 1
		next := base + 1
		for rest > 0 {
			child := next
			parent[child] = base
			cs := 1 + rng.Intn(rest)
			fill(child, cs)
			next += cs
			rest -= cs
		}
	}
	fill(0, n)
	return Tree{Parent: parent}
}

// TestRandomTreeCompileAndRun is the compiler's core property test: any
// valid pre-order tree must compile to a deadlock-free fabric program
// that computes the exact elementwise sum.
func TestRandomTreeCompileAndRun(t *testing.T) {
	f := func(seed int64, pRaw, bRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := int(pRaw%40) + 1
		b := int(bRaw%24) + 1
		tree := randomPreorderTree(rng, p)
		if err := tree.Validate(); err != nil {
			t.Logf("generator produced invalid tree: %v", err)
			return false
		}
		spec := fabric.NewSpec(p, 1)
		path := mesh.Row(0, 0, p)
		if err := BuildTreeReduce(spec, Lane{Path: path, N: b}, tree, fabric.OpSum); err != nil {
			t.Logf("compile p=%d b=%d: %v", p, b, err)
			return false
		}
		vecs, want := inputs(p, b, seed)
		for i, c := range path {
			spec.PE(c).Init = vecs[i]
		}
		fab, err := fabric.New(spec, fabric.Options{})
		if err != nil {
			t.Logf("new: %v", err)
			return false
		}
		res, err := fab.Run()
		if err != nil {
			t.Logf("run p=%d b=%d tree=%v: %v", p, b, tree.Parent, err)
			return false
		}
		if err := almostEqual(res.Acc[mesh.Coord{}], want); err != nil {
			t.Logf("result p=%d b=%d tree=%v: %v", p, b, tree.Parent, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomTreeOnSnakePaths repeats the property on boustrophedon paths,
// exercising direction changes at row turns (the Snake substrate of §7.3).
func TestRandomTreeOnSnakePaths(t *testing.T) {
	f := func(seed int64, wRaw, hRaw, bRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		w := int(wRaw%5) + 2
		h := int(hRaw%5) + 2
		b := int(bRaw%16) + 1
		path := mesh.Snake(h, w)
		p := len(path)
		tree := randomPreorderTree(rng, p)
		spec := fabric.NewSpec(w, h)
		if err := BuildTreeReduce(spec, Lane{Path: path, N: b}, tree, fabric.OpSum); err != nil {
			t.Logf("compile %dx%d: %v", w, h, err)
			return false
		}
		vecs, want := inputs(p, b, seed)
		for i, c := range path {
			spec.PE(c).Init = vecs[i]
		}
		fab, err := fabric.New(spec, fabric.Options{})
		if err != nil {
			return false
		}
		res, err := fab.Run()
		if err != nil {
			t.Logf("run %dx%d tree=%v: %v", w, h, tree.Parent, err)
			return false
		}
		return almostEqual(res.Acc[path[0]], want) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomTreeMeasuredEnergyMatchesTree checks the fabric's energy
// accounting against the tree's analytic energy: each edge (v→parent)
// carries b data wavelets (+1 control) over the path distance between
// them.
func TestRandomTreeMeasuredEnergyMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		p := 2 + rng.Intn(30)
		b := 1 + rng.Intn(16)
		tree := randomPreorderTree(rng, p)
		want := int64(0)
		for v := 1; v < p; v++ {
			want += int64((b + 1) * (v - tree.Parent[v]))
		}
		spec := fabric.NewSpec(p, 1)
		path := mesh.Row(0, 0, p)
		if err := BuildTreeReduce(spec, Lane{Path: path, N: b}, tree, fabric.OpSum); err != nil {
			t.Fatal(err)
		}
		vecs, _ := inputs(p, b, int64(trial))
		for i, c := range path {
			spec.PE(c).Init = vecs[i]
		}
		fab, err := fabric.New(spec, fabric.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fab.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Hops != want {
			t.Errorf("p=%d b=%d tree=%v: energy %d hops, analytic %d", p, b, tree.Parent, res.Stats.Hops, want)
		}
	}
}
