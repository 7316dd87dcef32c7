package experiments

import (
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestConformanceMeetsThePaper: §8.7 reports the model within ~4 % of the
// measurement; over the conformance lattice every kind's mean error is under
// that, and the model's choice is never more than 6 % behind the best
// algorithm there was — under either root and the ring, for a 1D AllReduce.
// Cell by cell the same lattice is asserted by the plan package's
// TestKindTableConformance.
func TestConformanceMeetsThePaper(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole lattice")
	}
	rows, err := Conformance()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(plan.Kinds) {
		t.Fatalf("%d rows for %d kinds", len(rows), len(plan.Kinds))
	}
	table := RenderConformance(rows)
	for _, r := range rows {
		if r.ErrMeanPct >= 4 {
			t.Errorf("%s: mean model error %.2f%%, the paper claims ~4%%", r.Kind, r.ErrMeanPct)
		}
		if r.BoundRatio < 1 || r.AutoWorst > 1.06 {
			t.Errorf("%s: cycles/bound %.3f, auto/best %.3f", r.Kind, r.BoundRatio, r.AutoWorst)
		}
		if !strings.Contains(table, string(r.Kind)) {
			t.Errorf("the table lacks %s:\n%s", r.Kind, table)
		}
	}
}
