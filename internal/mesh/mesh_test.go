package mesh

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestDirectionOpposite(t *testing.T) {
	cases := map[Direction]Direction{
		East: West, West: East, North: South, South: North, Ramp: Ramp,
	}
	for d, want := range cases {
		if got := d.Opposite(); got != want {
			t.Errorf("Opposite(%v)=%v, want %v", d, got, want)
		}
	}
}

func TestDirSet(t *testing.T) {
	s := Dirs(West, Ramp)
	if !s.Has(West) || !s.Has(Ramp) || s.Has(East) {
		t.Errorf("bad set %v", s)
	}
	if s.Count() != 2 {
		t.Errorf("count %d", s.Count())
	}
	if s.String() != "{west,ramp}" {
		t.Errorf("string %q", s.String())
	}
}

func TestCoordAddDirToInverse(t *testing.T) {
	f := func(x, y int16, dRaw uint8) bool {
		c := Coord{int(x), int(y)}
		d := Direction(dRaw % 4)
		n := c.Add(d)
		return c.DirTo(n) == d && n.Manhattan(c) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirToPanicsOnNonNeighbour(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Coord{0, 0}.DirTo(Coord{2, 0})
}

func TestPathsValid(t *testing.T) {
	for _, p := range []Path{
		Row(3, 2, 10),
		Column(1, 0, 7),
		Snake(5, 8),
		Snake(1, 16),
		Snake(16, 1),
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestSnakeCoversGrid(t *testing.T) {
	m, n := 6, 9
	p := Snake(m, n)
	if len(p) != m*n {
		t.Fatalf("len %d", len(p))
	}
	seen := make(map[Coord]bool, len(p))
	for _, c := range p {
		if c.X < 0 || c.X >= n || c.Y < 0 || c.Y >= m {
			t.Fatalf("out of grid: %v", c)
		}
		if seen[c] {
			t.Fatalf("repeat: %v", c)
		}
		seen[c] = true
	}
	if p[0] != (Coord{0, 0}) {
		t.Errorf("snake starts at %v", p[0])
	}
}

func TestPathValidateRejectsBadPaths(t *testing.T) {
	if err := (Path{{0, 0}, {2, 0}}).Validate(); err == nil {
		t.Error("gap accepted")
	}
	if err := (Path{{0, 0}, {1, 0}, {0, 0}}).Validate(); err == nil {
		t.Error("repeat accepted")
	}
	// A snake that turns back into the row it left: (1,0) again at step 5.
	reenter := Path{{0, 0}, {1, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 0}, {0, 0}}
	if err := reenter.Validate(); err == nil || err.Error() != "mesh: path visits (1,0) twice" {
		t.Errorf("a snake re-entering its row: %v", err)
	}
}

// referenceValidate is Path.Validate as a walk in order with a set of the
// coordinates seen so far.
func referenceValidate(p Path) error {
	seen := make(map[Coord]struct{}, len(p))
	for i, c := range p {
		if _, dup := seen[c]; dup {
			return fmt.Errorf("mesh: path visits %v twice", c)
		}
		seen[c] = struct{}{}
		if i > 0 && p[i-1].Manhattan(c) != 1 {
			return fmt.Errorf("mesh: path step %d: %v not adjacent to %v", i, c, p[i-1])
		}
	}
	return nil
}

// TestPathValidateMatchesReference: Validate reports the error the walk in
// order does, for valid paths, revisits, gaps, a revisit at the gap's step,
// a step from far off the path, and staircases whose box is too large for a
// bit per cell.
func TestPathValidateMatchesReference(t *testing.T) {
	stair := func(n int) Path {
		p := Path{{0, 0}}
		for i := 1; i < n; i++ {
			c := p[i-1]
			if i%2 == 1 {
				c.X++
			} else {
				c.Y++
			}
			p = append(p, c)
		}
		return p
	}
	long := stair(600)
	paths := []Path{
		nil,
		{{3, 4}},
		Snake(7, 9),
		Row(2, 5, 40),
		{{0, 0}, {0, 0}},
		{{0, 0}, {1, 0}, {5, 5}, {0, 0}},
		{{0, 0}, {1, 0}, {1, 1}, {0, 0}},
		{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0, 0}, {9, 9}},
		{{0, 0}, {1, 0}, {-1 << 30, 1 << 30}},
		long,
		append(append(Path(nil), long...), long[300]),
		append(append(Path(nil), long...), Coord{-5, 0}),
		append(append(Path(nil), long...), long[len(long)-2]),
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 400 {
		p := Path{{rng.IntN(3), rng.IntN(3)}}
		for len(p) < 2+rng.IntN(30) {
			c := p[len(p)-1].Add(Direction(rng.IntN(4)))
			if rng.IntN(40) == 0 {
				c = Coord{rng.IntN(9) - 4, rng.IntN(9) - 4}
			}
			p = append(p, c)
		}
		paths = append(paths, p)
	}
	for _, p := range paths {
		want, got := referenceValidate(p), p.Validate()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v: Validate says %v, the walk in order %v", p, got, want)
		}
	}
}

func TestPathDirections(t *testing.T) {
	p := Snake(2, 3) // (0,0)(1,0)(2,0)(2,1)(1,1)(0,1)
	if d := p.TowardEnd(0); d != East {
		t.Errorf("TowardEnd(0)=%v", d)
	}
	if d := p.TowardEnd(2); d != South {
		t.Errorf("TowardEnd(2)=%v", d)
	}
	if d := p.TowardStart(3); d != North {
		t.Errorf("TowardStart(3)=%v", d)
	}
	if d := p.TowardStart(4); d != East {
		t.Errorf("TowardStart(4)=%v", d)
	}
}
