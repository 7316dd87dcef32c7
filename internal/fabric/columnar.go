package fabric

// Columnar result assembly. A map-shaped Result is convenient but its
// construction — two maps plus one entry per programmed PE — is the
// dominant fixed cost of replaying a small cached plan. ColumnarResult is
// the same information laid flat: one concatenated accumulator buffer
// indexed by prefix offsets over a row-major coordinate list. Assembly is
// two appends per PE, the buffers are reusable across runs, and callers
// that only consume the root vector (or stream all accumulators in PE
// order) never pay for maps they would not read.

import (
	"sort"

	"repro/internal/mesh"
)

// ColumnarResult reports a completed run without per-PE maps: PE i (in
// row-major coordinate order, Coords[i]) holds Acc[Off[i]:Off[i+1]].
// Clock samples are not collected — callers that need them (skew
// diagnostics) use Run. The zero value is ready for RunColumnar, which
// reuses Off and Acc storage on repeated calls; a caller keeping several
// results (a batch) therefore passes a fresh value per run, sharing only
// what is documented as shareable below.
type ColumnarResult struct {
	// Cycles is the total cycle count until every processor finished and
	// the network drained.
	Cycles int64
	// Coords lists the programmed PEs in row-major order. It aliases the
	// fabric's immutable layout — identical across every run of one
	// instance — and must be treated as read-only.
	Coords []mesh.Coord
	// Off holds len(Coords)+1 prefix offsets into Acc. Offsets depend only
	// on the program, not the data, so a batch may seed each run's result
	// with the previous run's Off slice to share one backing array.
	Off []int
	// Acc is the concatenation of every PE's final accumulator.
	Acc []float32
	// Root aliases PE (0,0)'s accumulator within Acc (nil when that PE is
	// not programmed) — the reduction result, or the vector every PE holds
	// after a broadcast.
	Root []float32
	// Stats holds the measured cost metrics. Clock-sample-derived fields
	// aside, it matches Run's Stats exactly.
	Stats Stats
}

// At returns the final accumulator of the PE at c, or nil when c is not
// programmed. Lookup is a binary search over the row-major Coords.
func (r *ColumnarResult) At(c mesh.Coord) []float32 {
	i, ok := searchCoords(r.Coords, c)
	if !ok {
		return nil
	}
	return r.Acc[r.Off[i]:r.Off[i+1]:r.Off[i+1]]
}

// searchCoords finds c in a row-major sorted coordinate list.
func searchCoords(coords []mesh.Coord, c mesh.Coord) (int, bool) {
	i := sort.Search(len(coords), func(i int) bool {
		ci := coords[i]
		if ci.Y != c.Y {
			return ci.Y > c.Y
		}
		return ci.X >= c.X
	})
	return i, i < len(coords) && coords[i] == c
}

// resultColumnar assembles the run outcome into res, reusing its Off and
// Acc storage. It performs the same terminal checks as result.
func (f *Fabric) resultColumnar(res *ColumnarResult) error {
	stats, err := f.finalStats()
	if err != nil {
		return err
	}
	res.Cycles = f.cycle
	res.Stats = stats
	total := 0
	for i := range f.procs {
		total += len(f.procs[i].acc)
	}
	res.Coords = f.coords
	if cap(res.Off) < len(f.coords)+1 {
		res.Off = make([]int, 0, len(f.coords)+1)
	}
	res.Off = res.Off[:0]
	if cap(res.Acc) < total {
		res.Acc = make([]float32, 0, total)
	}
	res.Acc = res.Acc[:0]
	res.Root = nil
	for i := range f.procs {
		res.Off = append(res.Off, len(res.Acc))
		res.Acc = append(res.Acc, f.procs[i].acc...)
	}
	res.Off = append(res.Off, len(res.Acc))
	if f.width > 0 && f.height > 0 {
		if ri := f.grid[0]; ri >= 0 { // PE (0,0), the root of every kind here
			res.Root = res.Acc[res.Off[ri]:res.Off[ri+1]:res.Off[ri+1]]
		}
	}
	return nil
}
