package main

import (
	"context"
	"fmt"
	"os"
	"time"

	wse "repro"
	"repro/internal/workload"
)

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
