// Command wsefigures regenerates the tables and figures of "Near-Optimal
// Wafer-Scale Reduce" (HPDC 2024) on the fabric simulator and performance
// model.
//
// Usage:
//
//	wsefigures [-fig all|fig1|fig8|fig10|fig11a|...|headline|conformance] [-full] [-csv dir]
//
// The default -quick profile runs the 1D sweeps at the paper's full 512-PE
// scale with a thinned vector-length grid and the 2D sweeps at 16×16; -full
// uses the complete 4 B..16 KB grid and 64×64 measured 2D runs (slower).
// Model-only figures (1, 8, 10, the 512×512 projections) always run at
// paper scale. -fig conformance is not a figure of the paper: it runs the
// conformance lattice and prints, per collective kind, the model's error,
// the measured optimality ratio of Auto and Auto against the best algorithm.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (all, fig1, fig8, fig10, fig11a..fig13c, ring, headline, conformance)")
	full := flag.Bool("full", false, "use the paper-scale sweep grid (slower)")
	csvDir := flag.String("csv", "", "also write per-figure CSV files into this directory")
	flag.Parse()

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	if err := run(cfg, strings.ToLower(*fig), *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "wsefigures:", err)
		os.Exit(1)
	}
}

func run(cfg experiments.Config, fig, csvDir string) error {
	if fig == "all" || fig == "headline" {
		rep, err := cfg.RunAll()
		if err != nil {
			return err
		}
		if fig == "all" {
			fmt.Print(rep.Render())
		} else {
			fmt.Print(experiments.RenderHeadline(rep.Claims))
		}
		if csvDir != "" {
			for _, f := range rep.Figures {
				if err := writeCSV(csvDir, f.ID, f.CSV()); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if fig == "conformance" {
		rows, err := experiments.Conformance()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderConformance(rows))
		return nil
	}

	var figures []*experiments.Figure
	var heatmaps []*experiments.Heatmap
	var err error
	switch fig {
	case "fig1":
		heatmaps = experiments.Fig1()
	case "fig8":
		heatmaps = []*experiments.Heatmap{experiments.Fig8(), experiments.Fig8AutoGen()}
	case "fig10":
		heatmaps = []*experiments.Heatmap{experiments.Fig10()}
	case "fig11a":
		figures, err = one(cfg.Fig11a())
	case "fig11b":
		figures, err = one(cfg.Fig11b())
	case "fig11c":
		figures, err = one(cfg.Fig11c())
	case "fig12a":
		figures, err = one(cfg.Fig12a())
	case "fig12b":
		figures, err = one(cfg.Fig12b())
	case "fig12c":
		figures, err = one(cfg.Fig12c())
	case "fig13a":
		figures, err = one(cfg.Fig13a())
		figures = append(figures, cfg.Fig13Model512(false))
	case "fig13b":
		figures, err = one(cfg.Fig13b())
		figures = append(figures, cfg.Fig13Model512(true))
	case "fig13c":
		figures, err = one(cfg.Fig13c())
	case "ring":
		figures, err = one(cfg.RingValidation())
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	if err != nil {
		return err
	}
	for _, h := range heatmaps {
		fmt.Println(h.Render())
	}
	for _, f := range figures {
		fmt.Println(f.Table())
		if csvDir != "" {
			if err := writeCSV(csvDir, f.ID, f.CSV()); err != nil {
				return err
			}
		}
	}
	return nil
}

func one(f *experiments.Figure, err error) ([]*experiments.Figure, error) {
	if err != nil {
		return nil, err
	}
	return []*experiments.Figure{f}, nil
}

func writeCSV(dir, id, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, id+".csv"), []byte(content), 0o644)
}
