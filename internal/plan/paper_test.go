package plan

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/mesh"
)

// paperPatterns2D are the paper's own 2D programs (§7.2, §7.3): the X-Y
// compositions of its four fixed 1D patterns and the Snake chain. Figures 10
// and 13 measure them, and xy-chain is the vendor's baseline.
var paperPatterns2D = []core.Pattern2D{core.XYStar, core.XYChain, core.XYTree, core.XYTwoPhase, core.Snake}

// TestPaperProgramsDoNotMove pins the fabric program every paper 2D pattern
// compiles to, as the SHA-256 of its rendering (programHash), in
// testdata/paper_programs.golden: reduce and AllReduce on a few grids, odd,
// oblong and square, at one and at sixteen wavelets. What this repository adds
// to the grid's searched schedules (xy-autogen, the centre root) must leave
// these bytes alone, or the figures' baselines stop being the paper's
// programs. -update rewrites the file.
func TestPaperProgramsDoNotMove(t *testing.T) {
	var now strings.Builder
	for _, kind := range []Kind{Reduce2D, AllReduce2D} {
		for _, g := range [][2]int{{3, 2}, {4, 4}, {5, 7}, {8, 8}} {
			for _, b := range []int{1, 16} {
				for _, pat := range paperPatterns2D {
					req := Request{Kind: kind, Alg2D: pat, Width: g[0], Height: g[1], B: b}
					pl, err := Compile(req)
					if err != nil {
						t.Fatalf("%v: %v", KeyOf(req), err)
					}
					fmt.Fprintf(&now, "%s %s %dx%d b=%d %x\n", kind, pat, g[0], g[1], b, programHash(pl.Spec))
				}
			}
		}
	}
	matchProgramsGolden(t, "paper_programs.golden", now.String())
}

// TestPaperRingsDoNotMove pins the paper's ring programs of §6.2 likewise, in
// testdata/paper_rings.golden: the ring AllReduce in both mappings of
// Figure 7, and the ReduceScatter pinned to the ring, its first phase, on
// rows odd and even, at one, four and sixteen elements per PE. What this
// repository adds to the ReduceScatter's schedules must leave these bytes
// alone. -update rewrites the file.
func TestPaperRingsDoNotMove(t *testing.T) {
	var now strings.Builder
	pr := core.Params(fabric.Options{})
	line := func(name string, p, b int, spec *fabric.Spec) {
		fmt.Fprintf(&now, "%s p=%d b=%d %x\n", name, p, b, programHash(spec))
	}
	for _, p := range []int{2, 3, 16, 17, 64} {
		for _, b := range []int{p, 4 * p, 16 * p} {
			for _, pat := range []core.Pattern{core.Ring, core.RingDP} {
				if pat == core.RingDP && p%2 != 0 {
					continue // the distance-preserving mapping needs an even row
				}
				req := Request{Kind: AllReduce1D, Alg: pat, P: p, B: b}
				pl, err := Compile(req)
				if err != nil {
					t.Fatalf("%v: %v", KeyOf(req), err)
				}
				line(fmt.Sprintf("%s %s", AllReduce1D, pat), p, b, pl.Spec)
			}
			spec := fabric.NewSpec(p, 1)
			if err := core.BuildReduceScatterInto(spec, core.Ring, p, b, pr, fabric.OpSum); err != nil {
				t.Fatalf("reducescatter ring p=%d b=%d: %v", p, b, err)
			}
			line(fmt.Sprintf("%s %s", ReduceScatter, core.Ring), p, b, spec)
		}
	}
	matchProgramsGolden(t, "paper_rings.golden", now.String())
}

// programHash is the SHA-256 of a program printed PE by PE in row-major
// order: coordinate, ops, routing table, clock slots and init vector. It
// reads the Spec's fields, not its encoding, so a change of the spec codec's
// layout leaves the goldens alone.
func programHash(spec *fabric.Spec) []byte {
	h := sha256.New()
	fmt.Fprintf(h, "%dx%d\n", spec.Width, spec.Height)
	spec.Each(func(c mesh.Coord, pe *fabric.PESpec) {
		fmt.Fprintf(h, "%v %v %v %d %v\n", c, pe.Ops, pe.Configs, pe.ClockSlots, pe.Init)
	})
	return h.Sum(nil)
}

// matchProgramsGolden holds the lines of program hashes now to the golden
// file name under testdata, or rewrites it under -update.
func matchProgramsGolden(t *testing.T, name, now string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(now), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	got := strings.Split(strings.TrimSpace(now), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d programs, the golden holds %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("program moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
