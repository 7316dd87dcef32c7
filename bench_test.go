package wse

// One benchmark per table/figure of the paper's evaluation, plus ablation
// benches for the design choices DESIGN.md calls out and micro-benchmarks
// of the substrate. Each figure bench regenerates the corresponding
// artifact with the quick profile (full 1D scale, thinned B grid, 16×16
// measured 2D grids); run cmd/wsefigures -full for the complete sweep.
//
// The interesting output of a figure bench is the artifact itself (tables
// are logged with -v) and the custom metrics: model relative error and
// headline speedups, reported via b.ReportMetric.

import (
	"context"
	"math"
	"testing"

	"repro/internal/autogen"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/lowerbound"
	"repro/internal/model"
)

func benchCfg() experiments.Config {
	cfg := experiments.Quick()
	// Keep the per-iteration cost bounded for -benchtime defaults.
	cfg.Bs = []int{1, 16, 256, 1024}
	cfg.StarBCap = 64
	return cfg
}

func reportErr(b *testing.B, fig *experiments.Figure) {
	b.Helper()
	worst := 0.0
	for _, s := range fig.Series {
		if e := s.MeanRelError(); !math.IsNaN(e) && e > worst {
			worst = e
		}
	}
	b.ReportMetric(100*worst, "worst-rel-err-%")
	if b.N == 1 {
		b.Log("\n" + fig.Table())
	}
}

func BenchmarkFig1OptimalityHeatmaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		maps := experiments.Fig1()
		sum := experiments.Fig1Summary(maps)
		b.ReportMetric(sum["autogen"], "autogen-worst-ratio")
		b.ReportMetric(sum["twophase"], "twophase-worst-ratio")
	}
}

func BenchmarkFig8AllReduceRegions1D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.Fig8()
		b.ReportMetric(h.Max(), "max-speedup-vs-vendor")
	}
}

func BenchmarkFig10AllReduceRegions2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.Fig10()
		b.ReportMetric(h.Max(), "max-speedup-vs-vendor")
	}
}

func BenchmarkFig11aBroadcast1D(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig11a()
		if err != nil {
			b.Fatal(err)
		}
		reportErr(b, fig)
	}
}

func BenchmarkFig11bReduce1D(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig11b()
		if err != nil {
			b.Fatal(err)
		}
		reportErr(b, fig)
	}
}

func BenchmarkFig11cAllReduce1D(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig11c()
		if err != nil {
			b.Fatal(err)
		}
		reportErr(b, fig)
	}
}

func BenchmarkFig12aBroadcastScalePE(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig12a()
		if err != nil {
			b.Fatal(err)
		}
		reportErr(b, fig)
	}
}

func BenchmarkFig12bReduceScalePE(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig12b()
		if err != nil {
			b.Fatal(err)
		}
		reportErr(b, fig)
	}
}

func BenchmarkFig12cAllReduceScalePE(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig12c()
		if err != nil {
			b.Fatal(err)
		}
		reportErr(b, fig)
	}
}

func BenchmarkFig13aReduce2D(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig13a()
		if err != nil {
			b.Fatal(err)
		}
		reportErr(b, fig)
	}
}

func BenchmarkFig13bAllReduce2D(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig13b()
		if err != nil {
			b.Fatal(err)
		}
		reportErr(b, fig)
	}
}

func BenchmarkFig13cReduce2DScalePE(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.Fig13c()
		if err != nil {
			b.Fatal(err)
		}
		reportErr(b, fig)
	}
}

func BenchmarkHeadlineSpeedups(b *testing.B) {
	cfg := benchCfg()
	cfg.Bs = []int{64, 256, 1024, 4096}
	for i := 0; i < b.N; i++ {
		fb, err := cfg.Fig11b()
		if err != nil {
			b.Fatal(err)
		}
		fc, err := cfg.Fig11c()
		if err != nil {
			b.Fatal(err)
		}
		claims := experiments.Headline(fb, fc, cfg.Fig13Model512(false), cfg.Fig13Model512(true))
		for _, c := range claims {
			if b.N == 1 {
				b.Logf("%s: paper %.2fx ours %.2fx", c.Name, c.Paper, c.Ours)
			}
		}
		b.ReportMetric(claims[0].Ours, "1d-reduce-speedup")
		b.ReportMetric(claims[2].Ours, "2d-reduce-speedup")
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationTR sweeps the ramp latency. The paper pins T_R=2 by
// observing any other value degrades prediction accuracy (§8.7); here the
// simulated chain runtime shifts by exactly 2(P-1) cycles per unit of T_R,
// matching Lemma 5.2's (2T_R+2)(P-1) term.
func BenchmarkAblationTR(b *testing.B) {
	sh := Shape{Kind: KindReduce, Alg: Chain, P: 128, B: 256, Op: Sum}
	vectors := constVectors(sh.P, sh.B)
	for _, tr := range []int{-1, 1, 2, 4} {
		name := "TR=0"
		if tr > 0 {
			name = "TR=" + string(rune('0'+tr))
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := Run(context.Background(), sh, vectors, WithOptions(Options{TR: tr}))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Cycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationQueueCap sweeps router queue depth: depth 1 cannot
// sustain the one-wavelet-per-cycle pipeline, deeper queues change
// nothing — the collectives are backpressure-synchronised, not
// buffer-synchronised.
func BenchmarkAblationQueueCap(b *testing.B) {
	sh := Shape{Kind: KindReduce, Alg: Chain, P: 128, B: 256, Op: Sum}
	vectors := constVectors(sh.P, sh.B)
	for _, qc := range []int{1, 2, 4, 16} {
		b.Run("cap="+string(rune('0'+min(qc, 9)))+"", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := Run(context.Background(), sh, vectors, WithOptions(Options{QueueCap: qc}))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Cycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationTwoPhaseGroupSize sweeps the Two-Phase group size S
// around the paper's choice √P (Lemma 5.4 motivates S=√P as the
// depth/energy balance point).
func BenchmarkAblationTwoPhaseGroupSize(b *testing.B) {
	pr := model.Default()
	p, vec := 256, 256
	for _, s := range []int{4, 8, 16, 32, 64} {
		b.Run("S="+itoa(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(pr.TwoPhaseReduceS(p, vec, s), "model-cycles")
			}
		})
	}
}

// BenchmarkAblationThermalNoise measures how thermally inserted no-ops
// (§8.1) inflate a measured reduce, the effect the §8.3 calibration
// methodology absorbs.
func BenchmarkAblationThermalNoise(b *testing.B) {
	sh := Shape{Kind: KindReduce, Alg: TwoPhase, P: 64, B: 256, Op: Sum}
	vectors := constVectors(sh.P, sh.B)
	for _, rate := range []float64{0, 0.01, 0.05} {
		b.Run("rate="+ftoa(rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := Run(context.Background(), sh, vectors, WithOptions(Options{ThermalNoopRate: rate, Seed: uint64(i) + 1}))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Cycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationTaskActivation sweeps the per-transfer task wake-up
// cost (§2.2: tasks are activated by arriving wavelets; §8.5 blames this
// overhead for Star's measured slowdown). The sweep shows the charge
// lands on the critical path once per dependent transfer, so it punishes
// depth: the vendor chain (depth P-1) degrades fastest and the
// chain/AutoGen ratio grows with the activation cost — model-driven
// generation matters even more on a fabric with expensive task wake-ups.
func BenchmarkAblationTaskActivation(b *testing.B) {
	sh := Shape{Kind: KindReduce, Alg: Chain, P: 256, B: 64, Op: Sum}
	gen := sh
	gen.Alg = AutoGen
	vectors := constVectors(sh.P, sh.B)
	for _, act := range []int{0, 25, 50, 100} {
		b.Run("act="+itoa(act), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := WithOptions(Options{TaskActivation: act})
				chain, err := Run(context.Background(), sh, vectors, opt)
				if err != nil {
					b.Fatal(err)
				}
				auto, err := Run(context.Background(), gen, vectors, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(chain.Cycles)/float64(auto.Cycles), "chain/autogen")
			}
		})
	}
}

// BenchmarkAblationRingMapping compares the two ring mappings of Figure
// 7 on the simulator; the paper's model assigns them identical cost.
func BenchmarkAblationRingMapping(b *testing.B) {
	p, vec := 64, 1024
	vectors := constVectors(p, vec)
	for _, alg := range []Algorithm{Ring, RingDP} {
		b.Run(string(alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := Run(context.Background(), Shape{Kind: KindAllReduce, Alg: alg, P: p, B: vec, Op: Sum}, vectors)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Cycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationRootPlacement compares end-rooted and middle-rooted
// AllReduce (§6.1's root-placement optimisation).
func BenchmarkAblationRootPlacement(b *testing.B) {
	p, vec := 257, 64
	vectors := constVectors(p, vec)
	for _, root := range []struct {
		name string
		kind Collective
	}{{"end-root", KindAllReduce}, {"mid-root", KindAllReduceMidRoot}} {
		b.Run(root.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := Run(context.Background(), Shape{Kind: root.kind, Alg: TwoPhase, P: p, B: vec, Op: Sum}, vectors)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Cycles), "sim-cycles")
			}
		})
	}
}

// BenchmarkRingValidation regenerates the ring-validation extension
// experiment (the algorithm the paper modelled but never built).
func BenchmarkRingValidation(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		fig, err := cfg.RingValidation()
		if err != nil {
			b.Fatal(err)
		}
		reportErr(b, fig)
	}
}

// --- Micro-benchmarks of the substrate ----------------------------------

// BenchmarkFabricChainThroughput measures simulator speed in
// wavelet-hops per second on a pipelined chain (the dominant cost of
// every measured figure).
func BenchmarkFabricChainThroughput(b *testing.B) {
	sh := Shape{Kind: KindReduce, Alg: Chain, P: 256, B: 1024, Op: Sum}
	vectors := constVectors(sh.P, sh.B)
	b.ResetTimer()
	hops := int64(0)
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), sh, vectors)
		if err != nil {
			b.Fatal(err)
		}
		hops += rep.Stats.Hops
	}
	b.ReportMetric(float64(hops)/b.Elapsed().Seconds(), "hops/s")
}

// BenchmarkAutoGenTableBuild measures the Auto-Gen DP (the paper's
// offline code-generation cost; §5.5 gives O(P^4) for the tree search).
func BenchmarkAutoGenTableBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := autogen.Build(256, autogen.DefaultCaps())
		if t.Energy(256, 30, 3) <= 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkLowerBoundTableBuild measures the O(P^3) lower-bound DP.
func BenchmarkLowerBoundTableBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := lowerbound.For(512)
		if t.Time(512, 256, 2) <= 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkAutoGenTreeGeneration measures per-shape tree reconstruction,
// the online part of code generation.
func BenchmarkAutoGenTreeGeneration(b *testing.B) {
	tb := autogen.For(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tb.Tree(512, 256, 2)
		if tr.Len() != 512 {
			b.Fatal("bad tree")
		}
	}
}

// BenchmarkModelSelection measures the cost of a model-driven algorithm
// choice (what wse.Auto pays per call).
func BenchmarkModelSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.BestReduce1D(512, 256, core.Params(fabric.Options{}))
	}
}

// --- helpers -------------------------------------------------------------

func constVectors(p, b int) [][]float32 {
	out := make([][]float32, p)
	for i := range out {
		v := make([]float32, b)
		for j := range v {
			v[j] = 1
		}
		out[i] = v
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	switch {
	case f == 0:
		return "0"
	case f < 0.02:
		return "0.01"
	default:
		return "0.05"
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
