package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/tiny")

// perturbedRows turn a knob of the fabric away from the machine the paper
// validated its model on (T_R = 2, queues that sustain the pipeline, no
// thermal no-ops, free task wake-ups), so they are not held to the paper's
// error: they show how far a perturbed fabric leaves the model.
var perturbedRows = map[string]bool{"ablation-tr": true, "ablation-queue": true, "ablation-thermal": true, "ablation-activation": true}

// TestCatalogueGoldens pins every row's text and CSV under Tiny(). The
// goldens of the rows that predate the catalogue (fig1 through headline, and
// conformance) were written by the hand-rolled sweeps it replaced and pass
// unchanged: the one sweep loop prints what the nine did, byte for byte.
func TestCatalogueGoldens(t *testing.T) {
	arts, err := Tiny().Run(IDs()...)
	if err != nil {
		t.Fatal(err)
	}
	golden := func(name, got string) {
		t.Helper()
		path := filepath.Join("testdata", "tiny", name)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from its golden (go test -update rewrites it after a deliberate change):\n%s", name, got)
		}
	}
	for _, a := range arts {
		if first, _, _ := strings.Cut(a.Text, "\n"); !strings.Contains(first, a.ID) {
			t.Errorf("%s: first line %q does not carry the ID", a.ID, first)
		}
		golden(a.ID+".txt", a.Text)
		if a.Figure == nil {
			continue
		}
		golden(a.ID+".csv", a.Figure.CSV())
		if !perturbedRows[a.ID] {
			holdToModel(t, a.Figure, 0.05)
		}
	}
}

// TestCatalogueMeetsThePaper holds every measured series of every row to the
// abstract's claim at the scale wsefigures runs by default: the model
// predicts the measurement "with less than 4 % error".
func TestCatalogueMeetsThePaper(t *testing.T) {
	if testing.Short() {
		t.Skip("measures every figure at the quick profile's scale")
	}
	cfg := Quick()
	for _, e := range Catalogue {
		if e.Sweep == nil || perturbedRows[e.ID] {
			continue
		}
		holdToModel(t, figures(t, cfg, e.ID)[0], 0.04)
	}
}

// TestCatalogueIsDocumented keeps the README's "Reproducing the paper" table
// to one row per catalogue entry.
func TestCatalogueIsDocumented(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## Reproducing the paper")
	if !ok {
		t.Fatal(`README.md has no "Reproducing the paper" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	seen := map[string]bool{}
	for _, e := range Catalogue {
		if seen[e.ID] {
			t.Errorf("catalogue ID %q is not unique", e.ID)
		}
		seen[e.ID] = true
		if !strings.Contains(section, "| `"+e.ID+"` |") {
			t.Errorf("README's \"Reproducing the paper\" table has no row for %s", e.ID)
		}
	}
}

// BenchmarkCatalogue regenerates each row at the quick profile's scale with
// a thinned vector-length grid; a line figure reports the worst series' mean
// model error. The artifact itself is what `wsefigures -fig <id>` prints.
func BenchmarkCatalogue(b *testing.B) {
	cfg := Quick()
	cfg.Bs = []int{1, 16, 256, 1024}
	cfg.StarBCap = 64
	for _, e := range Catalogue {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				arts, err := cfg.Run(e.ID)
				if err != nil {
					b.Fatal(err)
				}
				if fig := arts[0].Figure; fig != nil && fig.WorstRelError() > 0 { // a model-only row has no error to report
					b.ReportMetric(100*fig.WorstRelError(), "worst-rel-err-%")
				}
			}
		})
	}
}
