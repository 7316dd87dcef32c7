package plan

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// paperPatterns2D are the paper's own 2D programs (§7.2, §7.3): the X-Y
// compositions of its four fixed 1D patterns and the Snake chain. Figures 10
// and 13 measure them, and xy-chain is the vendor's baseline.
var paperPatterns2D = []core.Pattern2D{core.XYStar, core.XYChain, core.XYTree, core.XYTwoPhase, core.Snake}

// TestPaperProgramsDoNotMove pins the fabric program every paper 2D pattern
// compiles to, as the SHA-256 of its encoded fabric.Spec, in
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
					enc, err := pl.Spec.MarshalBinary()
					if err != nil {
						t.Fatalf("%v: %v", KeyOf(req), err)
					}
					fmt.Fprintf(&now, "%s %s %dx%d b=%d %x\n", kind, pat, g[0], g[1], b, sha256.Sum256(enc))
				}
			}
		}
	}
	path := filepath.Join("testdata", "paper_programs.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(now.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	got := strings.Split(strings.TrimSpace(now.String()), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d programs, the golden holds %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("program moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
