package workload

import (
	"bufio"
	"errors"
	"os"
	"strings"
	"testing"

	wse "repro"
	"repro/internal/plan"
)

// Every Validate failure mode must wrap the ErrBadWorkload sentinel and
// name the offender, one sub-test per mode.
func TestValidateFailureModes(t *testing.T) {
	sh := wse.Shape{Kind: wse.KindBroadcast, P: 4, B: 8}

	t.Run("unknown step function", func(t *testing.T) {
		w := &Workload{Name: "bad"}
		if err := w.add(&Step{Name: "a", Func: "no-such-func", Shape: sh}); err != nil {
			t.Fatal(err)
		}
		err := w.Validate()
		if !errors.Is(err, ErrBadWorkload) {
			t.Fatalf("want ErrBadWorkload, got %v", err)
		}
		if !strings.Contains(err.Error(), "no-such-func") {
			t.Fatalf("error does not name the function: %v", err)
		}
	})

	t.Run("bad shape", func(t *testing.T) {
		_, err := New("bad").StepShape("a", wse.Shape{Kind: wse.KindReduce, P: 0, B: 8}).Build()
		if !errors.Is(err, ErrBadWorkload) {
			t.Fatalf("want ErrBadWorkload, got %v", err)
		}
		if !errors.Is(err, wse.ErrBadShape) {
			t.Fatalf("shape failure should also wrap ErrBadShape: %v", err)
		}
	})

	t.Run("dangling after", func(t *testing.T) {
		_, err := New("bad").StepShape("a", sh, "ghost").Build()
		if !errors.Is(err, ErrBadWorkload) {
			t.Fatalf("want ErrBadWorkload, got %v", err)
		}
		if !strings.Contains(err.Error(), "ghost") {
			t.Fatalf("error does not name the dangling reference: %v", err)
		}
	})

	t.Run("duplicate step name", func(t *testing.T) {
		_, err := New("bad").StepShape("a", sh).StepShape("a", sh).Build()
		if !errors.Is(err, ErrBadWorkload) {
			t.Fatalf("want ErrBadWorkload, got %v", err)
		}
		if !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("error does not say duplicate: %v", err)
		}
	})

	t.Run("cycle", func(t *testing.T) {
		_, err := New("bad").
			StepShape("a", sh, "c").
			StepShape("b", sh, "a").
			StepShape("c", sh, "b").
			Build()
		if !errors.Is(err, ErrBadWorkload) {
			t.Fatalf("want ErrBadWorkload, got %v", err)
		}
		for _, name := range []string{"a", "b", "c"} {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("cycle error does not name member %q: %v", name, err)
			}
		}
	})

	t.Run("self cycle", func(t *testing.T) {
		_, err := New("bad").StepShape("a", sh, "a").Build()
		if !errors.Is(err, ErrBadWorkload) {
			t.Fatalf("want ErrBadWorkload, got %v", err)
		}
	})

	t.Run("unknown builder function", func(t *testing.T) {
		_, err := New("bad").Step("definitely-not-registered", nil).Build()
		if !errors.Is(err, ErrBadWorkload) {
			t.Fatalf("want ErrBadWorkload, got %v", err)
		}
	})

	t.Run("unknown param key", func(t *testing.T) {
		_, err := New("bad").Step("reduce", Params{"algo": "tree"}).Build()
		if !errors.Is(err, ErrBadWorkload) {
			t.Fatalf("want ErrBadWorkload, got %v", err)
		}
		if !strings.Contains(err.Error(), "algo") {
			t.Fatalf("error does not name the bad key: %v", err)
		}
	})
}

func TestBuilderNameParamAndTopo(t *testing.T) {
	w, err := New("two-gemv").
		Step("gemv", Params{"p": "4", "b": "8"}).
		Step("gemv", Params{"p": "4", "b": "8", "name": "gemv2"}, "gemv").
		Step("allreduce", Params{"p": "4", "b": "8"}, "gemv2", "gemv").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if w.Step("gemv2") == nil || w.Step("gemv2").Func != "gemv" {
		t.Fatalf("name= rename lost: %+v", w.Steps())
	}
	order, err := w.topo()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(order))
	for i, st := range order {
		got[i] = st.Name
	}
	want := []string{"gemv", "gemv2", "allreduce"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topo order %v, want %v", got, want)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("empty name", func() { Register("", func(Params) (wse.Shape, error) { return wse.Shape{}, nil }, "") })
	mustPanic("nil func", func() { Register("x-nil", nil, "") })
	mustPanic("duplicate", func() { Register("reduce", func(Params) (wse.Shape, error) { return wse.Shape{}, nil }, "") })
}

func TestFuncsSortedAndDocumented(t *testing.T) {
	fns := Funcs()
	if len(fns) < 11 {
		t.Fatalf("want at least one step function per collective kind, got %d", len(fns))
	}
	for i, f := range fns {
		if f.Doc == "" {
			t.Errorf("func %s has no doc", f.Name)
		}
		if i > 0 && fns[i-1].Name >= f.Name {
			t.Fatalf("Funcs not sorted: %s >= %s", fns[i-1].Name, f.Name)
		}
	}
}

func TestParseGrammar(t *testing.T) {
	src := `
# a training step
workload train-step
step gemv p=6 B=12 alg=tree          # keys are case-insensitive
step allreduce p=6 b=12 op=max after=gemv
step gemv p=6 b=12 name=gemv2 after=gemv,allreduce
`
	w, err := Parse(strings.NewReader(src), "fallback")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "train-step" {
		t.Fatalf("workload name %q", w.Name)
	}
	if len(w.Steps()) != 3 {
		t.Fatalf("want 3 steps, got %d", len(w.Steps()))
	}
	g := w.Step("gemv")
	if g.Shape.Kind != wse.KindReduce || g.Shape.P != 6 || g.Shape.B != 12 || g.Shape.Alg != wse.Tree {
		t.Fatalf("gemv shape %+v", g.Shape)
	}
	ar := w.Step("allreduce")
	if ar.Shape.Op != wse.Max || len(ar.After) != 1 || ar.After[0] != "gemv" {
		t.Fatalf("allreduce step %+v", ar)
	}
	g2 := w.Step("gemv2")
	if len(g2.After) != 2 || g2.After[0] != "gemv" || g2.After[1] != "allreduce" {
		t.Fatalf("after list %v", g2.After)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive":  "run gemv p=4\n",
		"unknown function":   "step warp p=4\n",
		"not key=value":      "step gemv p4\n",
		"duplicate param":    "step gemv p=4 p=8\n",
		"workload twice":     "workload a\nworkload b\n",
		"missing step name":  "step\n",
		"dangling after":     "step gemv p=4 after=ghost\n",
		"bad integer":        "step gemv p=four\n",
		"duplicate step":     "step gemv p=4\nstep gemv p=4\n",
		"workload two names": "workload a b\n",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src), "t"); !errors.Is(err, ErrBadWorkload) {
			t.Errorf("%s: want ErrBadWorkload, got %v", name, err)
		}
	}
}

// TestKindTableConformance: the step vocabulary is the kind table — every
// row answers to its short name, its key name and any casing of either, with
// the row's doc line, and builds a Shape of the row's kind that validates.
func TestKindTableConformance(t *testing.T) {
	for i := range plan.Kinds {
		ki := &plan.Kinds[i]
		for _, name := range []string{ki.Name, string(ki.Kind), strings.ToUpper(ki.Name)} {
			f, ok := LookupFunc(name)
			if !ok || f.Name != ki.Name || f.Doc != ki.Doc {
				t.Errorf("LookupFunc(%q) = %+v, %v; want the %s function", name, f, ok, ki.Name)
				continue
			}
			sh, err := f.Fn(Params{"b": "80"})
			if err != nil || sh.Kind != ki.Kind || sh.Validate() != nil {
				t.Errorf("%s: step function built %+v, %v", name, sh, err)
			}
		}
	}
	if len(Funcs()) != len(plan.Kinds)+2 {
		t.Errorf("registry holds %d functions, want the %d kinds plus gemv and halo", len(Funcs()), len(plan.Kinds))
	}
	if _, err := New("w").Step("reduce1d", Params{"op": "xor"}).Build(); !errors.Is(err, ErrBadWorkload) {
		t.Errorf("op=xor: %v, want ErrBadWorkload", err)
	}
}

// FuzzParse: workload files come from users. Parse must never panic; every
// rejection wraps ErrBadWorkload (the scanner's own line-length limit
// aside); and whatever it accepts is a workload Validate passes, each step
// a runnable Shape under a unique name.
func FuzzParse(f *testing.F) {
	example, err := os.ReadFile("../../examples/workloads/trainstep.wl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(example))
	for _, fn := range Funcs() { // one step line per registered function
		f.Add("step " + fn.Name)
		f.Add("workload w\nstep " + fn.Name + " P=8 grid=3x2 B=16 alg=auto op=max name=a\nstep " + fn.Name + " after=a # twice")
	}
	f.Add("workload a b")
	f.Add("workload a\nworkload b")
	f.Add("step reduce p=x")
	f.Add("step reduce =1 name= after=,,")
	f.Add("step reduce name=a after=b\nstep reduce name=b after=a")
	f.Add("step scatter p=8 b=4")
	f.Add("walk")
	f.Fuzz(func(t *testing.T, text string) {
		w, err := Parse(strings.NewReader(text), "fuzz")
		if err != nil {
			if !errors.Is(err, ErrBadWorkload) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("Parse(%q) rejects with %v, which does not wrap ErrBadWorkload", text, err)
			}
			return
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("Parse accepted %q but Validate rejects it: %v", text, err)
		}
		for _, st := range w.Steps() {
			if err := st.Shape.Validate(); err != nil {
				t.Fatalf("Parse accepted %q with step %q of a bad shape: %v", text, st.Name, err)
			}
			if w.Step(st.Name) != st {
				t.Fatalf("Parse accepted %q with step name %q taken twice", text, st.Name)
			}
		}
	})
}
