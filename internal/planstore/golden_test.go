package planstore

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden encoded plans under testdata/")

// goldenCases fixes one small shape per collective kind, with concrete
// (non-Auto) algorithms so the stored program does not shift when the
// performance model's selections improve.
func goldenCases() []plan.Request {
	return []plan.Request{
		{Kind: plan.Reduce1D, Alg: core.Chain, P: 5, B: 3, Op: fabric.OpSum},
		{Kind: plan.AllReduce1D, Alg: core.Tree, P: 6, B: 2, Op: fabric.OpSum},
		{Kind: plan.Broadcast1D, P: 4, B: 3},
		{Kind: plan.Reduce2D, Alg2D: core.XYChain, Width: 3, Height: 2, B: 2, Op: fabric.OpSum},
		{Kind: plan.AllReduce2D, Alg2D: core.XYTree, Width: 3, Height: 3, B: 2, Op: fabric.OpSum},
		{Kind: plan.Broadcast2D, Width: 3, Height: 2, B: 3},
		{Kind: plan.Scatter, P: 4, B: 6},
		{Kind: plan.Gather, P: 4, B: 6},
		{Kind: plan.ReduceScatter, P: 4, B: 8, Op: fabric.OpSum},
		{Kind: plan.AllGather, P: 4, B: 6},
		{Kind: plan.AllReduceMidRoot, Alg: core.Chain, P: 5, B: 3, Op: fabric.OpSum},
	}
}

// goldenFrames are the committed frames of every kind: the version-1 frame
// of the freshly compiled plan, the version-3 frame the same plan is stored
// as once its first execution has recorded its replay tape, and the
// version-2 frame an earlier build stored it as then — a fixture no build
// writes any more, read for its program alone.
var goldenFrames = []struct {
	suffix  string
	version uint16
	taped   bool // decodes with a tape
}{
	{"", 1, false},
	{".v2", 2, false},
	{".v3", 3, true},
}

// goldenPath names the committed frame of a kind, by its suffix.
func goldenPath(kind plan.Kind, suffix string) string {
	return filepath.Join("testdata", string(kind)+suffix+blobExt)
}

// goldenPlan compiles a golden case the way its frame was made: taped plans
// have run once in a cache, which records the tape.
func goldenPlan(t *testing.T, req plan.Request, taped bool) *plan.Plan {
	t.Helper()
	if !taped {
		return mustCompile(t, req)
	}
	p, err := plan.NewCache(0).Get(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(inputsFor(p)); err != nil {
		t.Fatal(err)
	}
	if tape, _ := p.Tape(); tape == nil {
		t.Fatal("a cached plan's first execution recorded no tape")
	}
	return p
}

// TestGoldenPlans is the forward-compatibility guard of the codec: the
// committed encoded plans of every collective kind (goldenFrames) must keep
// decoding, keep their key derivation (or stored plans would silently miss
// after an upgrade), and keep producing correct collective results. A stored
// tape must also still be what the simulator decides (Plan.CheckTape): it
// fails together with internal/fabric's stats.golden when engine semantics
// are retuned. Run with -update after a deliberate format-version bump or
// engine change to regenerate the files this build can write.
func TestGoldenPlans(t *testing.T) {
	for _, req := range goldenCases() {
		for _, gf := range goldenFrames {
			t.Run(string(req.Kind)+gf.suffix, func(t *testing.T) {
				path := goldenPath(req.Kind, gf.suffix)
				if *updateGolden && gf.version != eventsVersion {
					data, _, err := Encode(goldenPlan(t, req, gf.taped))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run `go test ./internal/planstore -run TestGoldenPlans -update` to generate)", err)
				}
				if v, _ := frameVersion(data); v != gf.version {
					t.Fatalf("committed frame is version %d, want %d", v, gf.version)
				}
				decoded, _, err := Decode(data)
				if err != nil {
					t.Fatalf("golden plan no longer decodes — bump FormatVersion and regenerate deliberately, do not ship silently: %v", err)
				}
				// The stored key must still be the key this build derives for
				// the same request, or lookups would miss every stored plan.
				if want := plan.KeyOf(req); decoded.Key != want {
					t.Fatalf("key derivation drifted:\n stored %v\n derived %v", decoded.Key, want)
				}
				if tape, _ := decoded.Tape(); (tape != nil) != gf.taped {
					t.Fatalf("golden frame decodes with a tape: %v, want %v", tape != nil, gf.taped)
				}
				if err := decoded.CheckTape(); err != nil {
					t.Fatalf("golden tape is no longer what the simulator decides — regenerate deliberately: %v", err)
				}
				// The decoded program must still execute and agree with a
				// fresh compile of the same concrete request on the result
				// contents (cycle counts may legitimately shift when engine
				// semantics are retuned; results may not).
				fresh := mustCompile(t, req)
				inputs := inputsFor(decoded)
				got, err := decoded.Execute(inputs)
				if err != nil {
					t.Fatalf("golden plan no longer executes: %v", err)
				}
				want, err := fresh.Execute(inputs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Root, want.Root) || !reflect.DeepEqual(got.All, want.All) {
					t.Fatalf("golden plan results diverged:\n got %v\nwant %v", got.Root, want.Root)
				}
			})
		}
	}
}
