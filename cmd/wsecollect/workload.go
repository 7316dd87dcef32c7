package main

import (
	"context"
	"fmt"
	"os"
	"time"

	wse "repro"
	"repro/internal/workload"
	"repro/internal/workload/tune"
)

// tuneShapes resolves what the tune subcommand sweeps: every distinct
// shape of the -file workload, or the single shape the flags spell.
func tuneShapes(c *config) ([]wse.Shape, string, error) {
	if c.file != "" {
		w, err := workload.ParseFile(c.file)
		if err != nil {
			return nil, "", err
		}
		return w.Shapes(), w.Name, nil
	}
	sh, err := c.shape()
	if err != nil {
		return nil, "", err
	}
	return []wse.Shape{sh}, "", nil
}

// tuneCmd searches each shape's plan parameters (algorithm grid, router
// queue depth), prints the winners against the paper's
// lower bound, and persists them: -tunings writes the sidecar workloads
// apply, -store exports the compiled winning plans so cold sessions
// replay them without compiling.
func tuneCmd(c *config) error {
	shapes, wlName, err := tuneShapes(c)
	if err != nil {
		return err
	}
	start := time.Now()
	tunings, err := tune.Tune(context.Background(), shapes, tune.Config{Options: c.options()})
	if err != nil {
		return err
	}
	fmt.Printf("tuned %d shapes in %v\n", len(tunings), time.Since(start).Round(time.Millisecond))
	fmt.Printf("%-20s %-12s %6s %10s %10s %10s %10s\n",
		"kind", "alg", "queue", "default", "tuned", "vs bound", "speedup")
	for _, t := range tunings {
		alg := string(t.Tuned().Alg)
		if a2 := string(t.Tuned().Alg2D); a2 != "" {
			alg = a2
		}
		if alg == "" {
			alg = "-"
		}
		fmt.Printf("%-20s %-12s %6d %10d %10d %9.2fx %9.2fx\n",
			t.Shape.Kind, alg, t.Options.QueueCap,
			t.DefaultCycles, t.Cycles, t.AchievedVsBound, t.TunedVsDefault)
	}
	if c.tunings != "" {
		if err := tune.WriteSidecar(c.tunings, wlName, tunings); err != nil {
			return err
		}
		fmt.Printf("wrote %d tunings to %s\n", len(tunings), c.tunings)
	}
	if c.store != "" {
		store, err := wse.OpenPlanStore(c.store)
		if err != nil {
			return err
		}
		n, err := tune.ExportWinners(context.Background(), tunings, store)
		if err != nil {
			return err
		}
		fmt.Printf("exported %d winning plans to %s (store holds %d)\n", n, c.store, store.Len())
	}
	return nil
}

// workloadCmd dispatches the workload sub-verbs: run executes a
// workload file through a session, funcs lists the step vocabulary.
func workloadCmd(c *config, sub string) error {
	switch sub {
	case "funcs":
		for _, f := range workload.Funcs() {
			fmt.Printf("%-20s %s\n", f.Name, f.Doc)
		}
		return nil
	case "", "run":
		return workloadRunCmd(c)
	}
	return fmt.Errorf("unknown workload sub-verb %q (run, funcs)", sub)
}

func workloadRunCmd(c *config) error {
	if c.file == "" {
		return fmt.Errorf("workload run requires -file FILE.wl")
	}
	w, err := workload.ParseFile(c.file)
	if err != nil {
		return err
	}
	if c.tunings != "" {
		sc, err := tune.LoadSidecar(c.tunings)
		if err != nil {
			return err
		}
		applied := tune.Apply(w, sc.Tunings)
		fmt.Printf("applied %d of %d tunings from %s\n", applied, len(sc.Tunings), c.tunings)
	}
	cfg := wse.SessionConfig{Options: c.options(), Workers: c.workers}
	if c.store != "" {
		store, err := wse.OpenPlanStore(c.store)
		if err != nil {
			return err
		}
		cfg.Store = store
	}
	sess := wse.NewSession(cfg)
	defer sess.Close()

	ctx := context.Background()
	var res *workload.Result
	if c.sequential {
		res, err = workload.ExecSequential(ctx, sess, w)
	} else {
		res, err = workload.Exec(ctx, sess, w)
	}
	if err != nil {
		return err
	}

	fmt.Printf("workload %s: %d steps\n", w.Name, len(res.Steps))
	fmt.Printf("%-20s %-20s %-12s %10s %10s %12s\n", "step", "kind", "after", "cycles", "predicted", "wall")
	for _, sr := range res.Steps {
		after := "-"
		if len(sr.Step.After) > 0 {
			after = fmt.Sprintf("%d deps", len(sr.Step.After))
		}
		fmt.Printf("%-20s %-20s %-12s %10d %10.0f %12v\n",
			sr.Step.Name, sr.Step.Shape.Kind, after,
			sr.Report.Cycles, sr.Report.Predicted, sr.Wall.Round(time.Microsecond))
	}
	fmt.Printf("total: %d simulated cycles; wall %v, step sum %v",
		res.Cycles(), res.Wall.Round(time.Microsecond), res.StepSum.Round(time.Microsecond))
	if !c.sequential && res.StepSum > 0 {
		fmt.Printf(" (overlap saved %.0f%%)", 100*(1-float64(res.Wall)/float64(res.StepSum)))
	}
	fmt.Println()
	if c.store != "" {
		st := sess.PlanStats()
		fmt.Fprintf(os.Stdout, "plan cache: %d hits, %d misses, %d store loads\n", st.Hits, st.Misses, st.StoreHits)
	}
	return nil
}
