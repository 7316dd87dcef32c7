package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	wse "repro"
	"repro/internal/plan"
)

// TestKindTableConformance: the -collective flag is the kind table — every
// row resolves under its short name and its key name, the resulting shape
// validates and gets inputs of its layout, and the flag help lists every
// kind and every algorithm some kind accepts.
func TestKindTableConformance(t *testing.T) {
	for i := range plan.Kinds {
		ki := &plan.Kinds[i]
		for _, name := range []string{ki.Name, string(ki.Kind), strings.ToUpper(ki.Name)} {
			c, err := parseFlags("run", []string{"-collective", name, "-p", "8", "-grid", "3x2", "-bytes", "64", "-op", "max"})
			if err != nil {
				t.Fatal(err)
			}
			sh, err := c.shape()
			if err != nil || sh.Kind != ki.Kind || sh.Validate() != nil {
				t.Errorf("-collective %s: shape %+v, %v", name, sh, err)
				continue
			}
			if _, err := wse.Run(context.Background(), sh, inputsFor(sh)); err != nil {
				t.Errorf("-collective %s: run on inputsFor: %v", name, err)
			}
			if !strings.Contains(describe(sh, c.options()), " PEs") {
				t.Errorf("-collective %s: describe = %q", name, describe(sh, c.options()))
			}
		}
	}
	c, _ := parseFlags("run", []string{"-collective", "transpose"})
	if _, err := c.shape(); !errors.Is(err, wse.ErrBadShape) {
		t.Errorf("-collective transpose: %v, want ErrBadShape", err)
	}
	kinds, algs, algs2d := flagHelp()
	for _, want := range []string{"allreduce-midroot", "reducescatter"} {
		if !strings.Contains(kinds, want) {
			t.Errorf("-collective help %q lacks %s", kinds, want)
		}
	}
	for _, want := range []string{"ring", "ring-dp", "autogen", "auto"} {
		if !strings.Contains(algs, want) {
			t.Errorf("-alg help %q lacks %s", algs, want)
		}
	}
	if !strings.Contains(algs2d, "snake") {
		t.Errorf("-alg2d help %q lacks snake", algs2d)
	}
}

// TestDescribeSaysWhatAutoChose: the report line of an Auto run names the
// algorithm the model resolved it to under the run's options — and the kind
// whose program runs it when Auto rooted an AllReduce in the middle; the
// chunked kinds, which take no algorithm, say which schedule runs; a concrete
// algorithm and a kind with one schedule are printed as given.
func TestDescribeSaysWhatAutoChose(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-collective allreduce -alg auto -p 64 -bytes 4096", "64x1 PEs, alg=auto (→ autogen)"},
		// One wavelet per PE: distance is all there is, and the middle root
		// halves it — 38 cycles under the searched pair, 52 from the end.
		{"-collective allreduce -p 16 -bytes 4", "16x1 PEs, alg=auto (→ allreduce-midroot/autogen)"},
		{"-collective allreduce -p 512 -bytes 4", "512x1 PEs, alg=auto (→ allreduce-midroot/autogen)"},
		// 16 PEs, 16 KB: the ring moves 2B(P-1)/P wavelets a PE, the trees 2B.
		{"-collective allreduce -p 16 -bytes 16384", "16x1 PEs, alg=auto (→ ring)"},
		// 1 KB on 64 PEs: the fold's middle PE takes one stream, 2495 cycles;
		// the halves' takes two, 3303. At 16 bytes the halves win.
		{"-collective allreduce-midroot -p 64 -bytes 4096", "64x1 PEs, alg=auto (→ fold)"},
		{"-collective allreduce-midroot -p 64 -bytes 16", "64x1 PEs, alg=auto (→ autogen)"},
		{"-collective reducescatter -p 16 -bytes 1024", "16x1 PEs (→ ring)"},
		{"-collective reducescatter -p 256 -bytes 1024", "256x1 PEs (→ autogen)"},
		{"-collective allgather -p 16 -bytes 64", "16x1 PEs (→ star)"},
		{"-collective reduce2d -grid 8x8 -bytes 64", "8x8 PEs, alg=auto (→ xy-twophase)"},
		// One wavelet on a 32×32 grid: rooted in the centre, 103 cycles; 165 in the corner.
		{"-collective allreduce2d -grid 32x32 -bytes 4", "32x32 PEs, alg=auto (→ centre)"},
		{"-collective reduce -alg chain -p 8", "8x1 PEs, alg=chain"},
		{"-collective broadcast -p 8", "8x1 PEs"},
	} {
		c, err := parseFlags("run", strings.Fields(tc.args))
		if err != nil {
			t.Fatal(err)
		}
		sh, err := c.shape()
		if err != nil {
			t.Fatal(err)
		}
		if got := describe(sh, c.options()); got != tc.want {
			t.Errorf("%s: describe = %q, want %q", tc.args, got, tc.want)
		}
	}
}
