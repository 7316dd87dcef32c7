package main

// Inputs and host-side references. Every output the benchmark reads is
// checked against what a plain loop over the inputs says it must be, so a
// host-side optimisation that corrupts a result (or a cycle count) fails
// the run instead of showing up as a speed-up.

import (
	"fmt"
	"math/rand/v2"

	wse "repro"
)

// genInputs draws the inputs of one run of sh from rng, in the arity the
// Shape-first verbs expect. Values are small integers, so float32 sums
// over at most a few thousand PEs are exact in any association order and
// the reference below can demand equality, not closeness.
func genInputs(sh wse.Shape, rng *rand.Rand) [][]float32 {
	vec := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.IntN(8))
		}
		return v
	}
	switch sh.Kind {
	case wse.KindBroadcast, wse.KindBroadcast2D, wse.KindScatter:
		return [][]float32{vec(sh.B)}
	case wse.KindGather, wse.KindAllGather:
		_, sz := wse.Chunks(sh.P, sh.B)
		out := make([][]float32, sh.P)
		for j := range out {
			out[j] = vec(sz[j])
		}
		return out
	}
	out := make([][]float32, pes(sh))
	for i := range out {
		out[i] = vec(sh.B)
	}
	return out
}

// pes is the PE count of a shape: the row length of 1D kinds, the grid
// area of 2D kinds.
func pes(sh wse.Shape) int {
	switch sh.Kind {
	case wse.KindReduce2D, wse.KindAllReduce2D, wse.KindBroadcast2D:
		return sh.Width * sh.Height
	}
	return sh.P
}

// reference is the length-B vector the collective is about: the
// elementwise reduction for the reduce family, the root vector for
// broadcast and scatter, the concatenated chunks for the gather family.
func reference(sh wse.Shape, inputs [][]float32) []float32 {
	switch sh.Kind {
	case wse.KindBroadcast, wse.KindBroadcast2D, wse.KindScatter:
		return inputs[0]
	case wse.KindGather, wse.KindAllGather:
		out := make([]float32, 0, sh.B)
		for _, c := range inputs {
			out = append(out, c...)
		}
		return out
	}
	out := append([]float32(nil), inputs[0]...)
	for _, v := range inputs[1:] {
		for i, x := range v {
			out[i] = sh.Op.Apply(out[i], x)
		}
	}
	return out
}

// checkRoot verifies Report.Root, the one result every execution path
// returns (the wire format ships nothing else). For scatter and
// reduce-scatter PE 0 owns only chunk 0, so only that prefix is defined.
func checkRoot(sh wse.Shape, want, root []float32) error {
	n := len(want)
	switch sh.Kind {
	case wse.KindScatter, wse.KindReduceScatter:
		_, sz := wse.Chunks(sh.P, sh.B)
		n = sz[0]
	}
	if len(root) < n {
		return fmt.Errorf("root has %d elements, want at least %d", len(root), n)
	}
	return sameVec(root[:n], want[:n], "root")
}

// checkAll verifies the per-PE result layout of a map-shaped report: the
// full vector on every PE for the all-* kinds and broadcasts, chunk j on
// PE j (per wse.Chunks) for scatter and reduce-scatter.
func checkAll(sh wse.Shape, want []float32, rep *wse.Report) error {
	if err := checkRoot(sh, want, rep.Root); err != nil {
		return err
	}
	switch sh.Kind {
	case wse.KindAllReduce, wse.KindAllReduceMidRoot, wse.KindAllReduce2D,
		wse.KindBroadcast, wse.KindBroadcast2D, wse.KindAllGather:
		if len(rep.All) != pes(sh) {
			return fmt.Errorf("%d PEs reported, want %d", len(rep.All), pes(sh))
		}
		for c, v := range rep.All {
			if err := sameVec(v, want, c.String()); err != nil {
				return err
			}
		}
	case wse.KindScatter, wse.KindReduceScatter:
		off, sz := wse.Chunks(sh.P, sh.B)
		for j := 0; j < sh.P; j++ {
			acc := rep.All[wse.Coord{X: j}]
			lo := 0 // scatter delivers chunk j to the front of PE j's accumulator
			if sh.Kind == wse.KindReduceScatter {
				lo = off[j] // reduce-scatter leaves it at its chunk offset
			}
			if len(acc) < lo+sz[j] {
				return fmt.Errorf("PE %d holds %d elements, want at least %d", j, len(acc), lo+sz[j])
			}
			if err := sameVec(acc[lo:lo+sz[j]], want[off[j]:off[j]+sz[j]], fmt.Sprintf("chunk %d", j)); err != nil {
				return err
			}
		}
	}
	return nil
}

func sameVec(got, want []float32, what string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}
