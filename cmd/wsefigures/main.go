// Command wsefigures regenerates the tables and figures of "Near-Optimal
// Wafer-Scale Reduce" (HPDC 2024) on the fabric simulator and performance
// model: the rows of the catalogue in internal/experiments.
//
// Usage:
//
//	wsefigures [-fig all|<row>] [-full] [-csv dir]
//
// The default quick profile runs the 1D sweeps at the paper's full 512-PE
// scale with a thinned vector-length grid and the 2D sweeps at 16×16; -full
// uses the complete 4 B..16 KB grid and 64×64 measured 2D runs (slower).
// Model-only rows (Figures 1, 8, 10, the 512×512 projections) always run at
// paper scale. The README's "Reproducing the paper" section says what each
// row measures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "row of the catalogue to regenerate: all, "+strings.Join(experiments.IDs(), ", "))
	full := flag.Bool("full", false, "use the paper-scale sweep grid (slower)")
	csvDir := flag.String("csv", "", "also write one CSV file per line figure into this directory")
	flag.Parse()

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	if err := run(os.Stdout, cfg, strings.ToLower(*fig), *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "wsefigures:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg experiments.Config, fig, csvDir string) error {
	ids := []string{fig}
	if fig == "all" {
		ids = experiments.IDs()
	}
	arts, err := cfg.Run(ids...)
	if err != nil {
		return err
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	for _, a := range arts {
		if _, err := io.WriteString(w, a.Text); err != nil {
			return err
		}
		if csvDir != "" && a.Figure != nil {
			if err := os.WriteFile(filepath.Join(csvDir, a.ID+".csv"), []byte(a.Figure.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
