// Package tune is the plan autotuner: for each Shape of a workload it
// searches the plan parameters a deployment can actually choose — the
// algorithm (grid over every pattern the kind accepts) and the router
// queue depth (neighborhood around the hardware default) — and scores
// every candidate's measured cost against the performance model's
// Predict and the paper's Bound lower bound. The winners close the loop
// the paper opens: how close does the fabric actually get to its own
// lower bounds, per kind, and which parameter choices get it there.
//
// Winners persist two ways: ExportWinners replays them through a fresh
// session and Session.Exports the compiled plans into a plan store, so
// every session over that store inherits the tuned plans through its
// resolve chain (store → compile) with zero recompilation; and a
// tunings sidecar (JSON) records the winning shape + options so
// workloads and clients can ask for exactly the tuned spelling.
package tune

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	wse "repro"
	"repro/internal/plan"
	"repro/internal/workload"
)

// Config tunes the tuner; the zero value searches the default grid
// under WSE-2 fabric options.
type Config struct {
	// Options is the baseline fabric configuration every candidate
	// starts from (the zero value models the WSE-2). QueueCap is
	// overwritten by the search; the other fields (TR, skew, seed, shards,
	// ...) are held fixed.
	Options wse.Options
	// QueueCaps is the router queue depth neighborhood to explore around
	// the winning algorithm (default 2, 4, 8).
	QueueCaps []int
	// Session, when non-nil, is the session candidates run through;
	// otherwise Tune builds (and closes) its own. A supplied session
	// needs a plan cache large enough for the whole candidate grid.
	Session *wse.Session
}

func (c Config) queueCaps() []int {
	if len(c.QueueCaps) > 0 {
		return c.QueueCaps
	}
	return []int{2, 4, 8}
}

// Tuning is one shape's search outcome: the winning parameters and the
// achieved-vs-model scores. Shape keeps the open (Auto) spelling the
// workload asked with; Tuned() is the concrete winner.
type Tuning struct {
	// Shape is the request as tuned: the algorithm left open (Auto).
	Shape wse.Shape `json:"shape"`
	// Alg / Alg2D is the winning concrete algorithm, where the kind has
	// a choice.
	Alg   wse.Algorithm   `json:"alg,omitempty"`
	Alg2D wse.Algorithm2D `json:"alg2d,omitempty"`
	// Options are the fabric options the winner replays under — the
	// baseline with the tuned QueueCap applied.
	Options wse.Options `json:"options"`
	// Cycles is the winner's measured simulated runtime; DefaultCycles
	// what the untuned request (model-picked algorithm, default queue
	// depth) measures.
	Cycles        int64 `json:"cycles"`
	DefaultCycles int64 `json:"default_cycles"`
	// Bound is the paper's runtime lower bound for the shape, Predicted
	// the model estimate for the winning algorithm.
	Bound     float64 `json:"bound"`
	Predicted float64 `json:"predicted"`
	// AchievedVsBound is Cycles/Bound — the optimality ratio of the
	// paper's Figure 1, measured instead of modelled. TunedVsDefault is
	// DefaultCycles/Cycles, the speedup tuning bought (>= 1: the default
	// is itself a candidate).
	AchievedVsBound float64 `json:"achieved_vs_bound"`
	TunedVsDefault  float64 `json:"tuned_vs_default"`
}

// Tuned returns the winner as a runnable Shape: the open algorithm
// replaced by the winning concrete one.
func (t Tuning) Tuned() wse.Shape {
	sh := t.Shape
	if t.Alg != "" {
		sh.Alg = t.Alg
	}
	if t.Alg2D != "" {
		sh.Alg2D = t.Alg2D
	}
	return sh
}

// Normalize returns sh with its algorithm choice left open: the Auto
// spelling workloads default to, and the identity tunings are matched
// under.
func Normalize(sh wse.Shape) wse.Shape {
	if ki := plan.InfoOf(sh.Kind); ki != nil {
		if ki.Algs != nil && sh.Alg == "" {
			sh.Alg = wse.Auto
		}
		if ki.Algs2D != nil && sh.Alg2D == "" {
			sh.Alg2D = wse.Auto2D
		}
	}
	return sh
}

// algCandidates enumerates the concrete algorithm grid a kind accepts: its
// row of the kind table. Kinds without an algorithm choice search only the
// queue axis.
func algCandidates(sh wse.Shape) []wse.Shape {
	ki := plan.InfoOf(sh.Kind)
	if ki == nil {
		return nil
	}
	var out []wse.Shape
	for _, a := range ki.Algs {
		c := sh
		c.Alg = a
		out = append(out, c)
	}
	for _, a := range ki.Algs2D {
		c := sh
		c.Alg2D = a
		out = append(out, c)
	}
	return out
}

// Tune searches the parameter space of every shape and returns one
// Tuning per shape, in input order. Shapes are deduplicated by
// canonical plan key. The measured cycles are deterministic (the
// simulator is), so a tuning pass gives the same winners on every host.
func Tune(ctx context.Context, shapes []wse.Shape, cfg Config) ([]Tuning, error) {
	s := cfg.Session
	if s == nil {
		s = wse.NewSession(wse.SessionConfig{Options: cfg.Options, PlanCacheCapacity: 1024})
		defer s.Close()
	}
	seen := map[string]bool{}
	var out []Tuning
	for _, raw := range shapes {
		sh := Normalize(raw)
		key := wse.KeyString(sh, wse.Options{})
		if seen[key] {
			continue
		}
		seen[key] = true
		t, err := tuneShape(ctx, s, sh, cfg)
		if err != nil {
			return out, fmt.Errorf("tune %s: %w", sh.Kind, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// tuneShape runs the search for one shape: algorithm grid, then queue
// depth neighborhood around the winner.
func tuneShape(ctx context.Context, s *wse.Session, sh wse.Shape, cfg Config) (Tuning, error) {
	inputs := workload.BaseInputs(sh, "tune:"+string(sh.Kind))
	baseOpt := cfg.Options

	// The default the tuner must beat: the request as a workload would
	// issue it — algorithm left to the model, hardware queue depth.
	defRep, err := s.Run(ctx, sh, inputs, wse.WithOptions(baseOpt))
	if err != nil {
		return Tuning{}, err
	}
	bestShape, bestOpt, bestCycles := sh, baseOpt, defRep.Cycles

	// Grid over the algorithms the kind accepts. Candidates that do not
	// compile for this geometry (ring with B < P) are skipped, not fatal.
	for _, cand := range algCandidates(sh) {
		rep, err := s.Run(ctx, cand, inputs, wse.WithOptions(baseOpt))
		if err != nil {
			continue
		}
		if rep.Cycles < bestCycles {
			bestShape, bestCycles = cand, rep.Cycles
		}
	}

	// Neighborhood over the router queue depth, holding the winning
	// algorithm: deeper queues relax backpressure, shallower ones model
	// stricter hardware — adopted only on a strict cycle win.
	for _, q := range cfg.queueCaps() {
		opt := bestOpt
		opt.QueueCap = q
		rep, err := s.Run(ctx, bestShape, inputs, wse.WithOptions(opt))
		if err != nil {
			continue
		}
		if rep.Cycles < bestCycles {
			bestOpt, bestCycles = opt, rep.Cycles
		}
	}

	t := Tuning{
		Shape:         sh,
		Options:       bestOpt,
		Cycles:        bestCycles,
		DefaultCycles: defRep.Cycles,
		Bound:         s.Bound(sh, wse.WithOptions(bestOpt)),
		Predicted:     s.Predict(bestShape, wse.WithOptions(bestOpt)),
	}
	if bestShape.Alg != sh.Alg {
		t.Alg = bestShape.Alg
	}
	if bestShape.Alg2D != sh.Alg2D {
		t.Alg2D = bestShape.Alg2D
	}
	if t.Bound > 0 {
		t.AchievedVsBound = float64(t.Cycles) / t.Bound
	}
	if t.Cycles > 0 {
		t.TunedVsDefault = float64(t.DefaultCycles) / float64(t.Cycles)
	}
	return t, nil
}

// ExportWinners compiles every tuning's winner — the concrete algorithm
// under the tuned options — through a fresh session and exports the
// compiled plans into store with Session.Export. A cold session opening
// that store then
// serves the tuned workload by decoding plans, never compiling; the
// tuned spelling to ask with is the sidecar's Tuned() + Options.
func ExportWinners(ctx context.Context, tunings []Tuning, store *wse.PlanStore) (int, error) {
	capacity := len(tunings)
	if capacity < 16 {
		capacity = 16
	}
	s := wse.NewSession(wse.SessionConfig{PlanCacheCapacity: capacity})
	defer s.Close()
	for _, t := range tunings {
		sh := t.Tuned()
		inputs := workload.BaseInputs(sh, "tune:"+string(sh.Kind))
		if _, err := s.Run(ctx, sh, inputs, wse.WithOptions(t.Options)); err != nil {
			return 0, fmt.Errorf("export %s: %w", sh.Kind, err)
		}
	}
	return s.Export(store)
}

// Sidecar is the durable form of a tuning pass: version-stamped JSON
// listing every winner, written next to the plan store (or wherever the
// deployment keeps configuration).
type Sidecar struct {
	Version  int      `json:"version"`
	Workload string   `json:"workload,omitempty"`
	Tunings  []Tuning `json:"tunings"`
}

// SidecarVersion stamps sidecar files; readers reject newer majors.
const SidecarVersion = 1

// WriteSidecar writes the tunings to path as a Sidecar.
func WriteSidecar(path, workloadName string, tunings []Tuning) error {
	buf, err := json.MarshalIndent(Sidecar{Version: SidecarVersion, Workload: workloadName, Tunings: tunings}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// LoadSidecar reads a Sidecar back. A tuning whose winner, Tuned(), is not a
// valid Shape is rejected with an error wrapping wse.ErrBadShape that names
// its index, so Apply never writes a step that could only fail when it runs.
func LoadSidecar(path string) (Sidecar, error) {
	var sc Sidecar
	buf, err := os.ReadFile(path)
	if err != nil {
		return sc, err
	}
	if err := json.Unmarshal(buf, &sc); err != nil {
		return sc, fmt.Errorf("tunings sidecar %s: %w", path, err)
	}
	if sc.Version > SidecarVersion {
		return sc, fmt.Errorf("tunings sidecar %s: version %d newer than supported %d", path, sc.Version, SidecarVersion)
	}
	for i, t := range sc.Tunings {
		if err := t.Tuned().Validate(); err != nil {
			return sc, fmt.Errorf("tunings sidecar %s: tuning %d: %w", path, i, err)
		}
	}
	return sc, nil
}

// Apply rewrites w's steps with the tunings' winners: a step whose
// algorithm choice is open (Auto or unset) and whose shape matches a
// tuning adopts the winning algorithm and the tuned fabric options;
// steps that pinned a concrete algorithm are the user's choice and are
// left alone. It returns how many steps were rewritten.
func Apply(w *workload.Workload, tunings []Tuning) int {
	byKey := make(map[string]Tuning, len(tunings))
	for _, t := range tunings {
		byKey[wse.KeyString(Normalize(t.Shape), wse.Options{})] = t
	}
	applied := 0
	for _, st := range w.Steps() {
		if !choiceOpen(st.Shape) {
			continue
		}
		t, ok := byKey[wse.KeyString(Normalize(st.Shape), wse.Options{})]
		if !ok {
			continue
		}
		st.Shape = t.Tuned()
		opt := t.Options
		st.Opt = &opt
		applied++
	}
	return applied
}

// choiceOpen reports whether a step left its algorithm to the model —
// the only steps a tuning may rewrite. Algorithm-free kinds are always
// open (their tunings carry queue options only).
func choiceOpen(sh wse.Shape) bool {
	switch ki := plan.InfoOf(sh.Kind); {
	case ki != nil && ki.Algs != nil:
		return sh.Alg == "" || sh.Alg == wse.Auto
	case ki != nil && ki.Algs2D != nil:
		return sh.Alg2D == "" || sh.Alg2D == wse.Auto2D
	}
	return true
}
