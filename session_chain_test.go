package wse

// The one plan miss path through the public surface: whatever a session has
// attached — nothing, a Store, a Resolver chain, both — a miss is one call of
// a resolver chain, PlanStats' store fields read that chain's stages, and a
// plan reaches the store once.

import (
	"bytes"
	"context"
	"errors"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/plan"
	"repro/internal/resolve"
)

func TestOnePlanMissPath(t *testing.T) {
	ctx := context.Background()
	sh := Shape{Kind: KindReduce, Alg: Chain, P: 6, B: 4}
	other := Shape{Kind: KindReduce, Alg: Chain, P: 7, B: 4}
	ones := func(n int) []float32 { return []float32{1, 1, 1, 1}[:n] }

	for _, c := range []struct {
		name            string
		store, resolver bool
	}{
		{"nothing attached", false, false},
		{"Store", true, false},
		{"Resolver", false, true},
		{"Store and Resolver", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenPlanStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			persists := c.store || c.resolver
			// session builds a fresh session in the configuration under test,
			// and hands back its chain where the test holds one.
			session := func() (*Session, resolve.Resolver) {
				var cfg SessionConfig
				var chain resolve.Resolver
				if c.store {
					cfg.Store = store
				}
				if c.resolver {
					chain = resolve.Sequential(resolve.Optional(resolve.Store(store)), resolve.WriteBack(resolve.Compiler(), store))
					cfg.Resolver = chain
				}
				s := NewSession(cfg)
				t.Cleanup(func() { s.Close() })
				return s, chain
			}
			// ledger checks the session's view and the chain's against each
			// other and against what the step expects.
			ledger := func(step string, s *Session, chain resolve.Resolver, misses, storeHits, storeErrs int64) {
				t.Helper()
				st := s.PlanStats()
				if !persists {
					storeHits, storeErrs = 0, 0
				}
				if st.Misses != misses || st.StoreHits != storeHits || st.StoreErrors != storeErrs {
					t.Errorf("%s: PlanStats %+v; want %d misses, %d store hits, %d store errors", step, st, misses, storeHits, storeErrs)
				}
				if chain == nil {
					return
				}
				var hits, errs int64
				for _, sg := range chain.Stats() {
					if sg.Hits+sg.Misses+sg.Errors != sg.Lookups {
						t.Errorf("%s: stage %s: %d hits + %d misses + %d errors != %d lookups", step, sg.Stage, sg.Hits, sg.Misses, sg.Errors, sg.Lookups)
					}
					if sg.Stage == "store" {
						hits, errs = sg.Hits, sg.Errors
						if sg.Lookups != misses {
							t.Errorf("%s: store stage saw %d lookups for %d cache misses", step, sg.Lookups, misses)
						}
					}
					errs += sg.SaveErrors
				}
				if hits != st.StoreHits || errs != st.StoreErrors {
					t.Errorf("%s: the chain counts %d store hits, %d store errors; PlanStats %d, %d", step, hits, errs, st.StoreHits, st.StoreErrors)
				}
			}
			saves := func(step string, want int64) {
				t.Helper()
				if !persists {
					want = 0
				}
				if got := store.Stats().Saves; got != want {
					t.Errorf("%s: %d saves, want %d", step, got, want)
				}
			}
			run := func(s *Session, sh Shape) error {
				_, err := s.Run(ctx, sh, sh.Inputs(ones))
				return err
			}

			// A first run compiles, and writes the plan once, tape included.
			s1, chain := session()
			if err := run(s1, sh); err != nil {
				t.Fatal(err)
			}
			ledger("first run", s1, chain, 1, 0, 0)
			saves("first run", 1)
			if persists {
				if p, ok, err := store.Load(planKey(s1, sh)); err != nil || !ok {
					t.Fatalf("first run: stored plan ok=%v err=%v", ok, err)
				} else if tape, _ := p.Tape(); tape == nil {
					t.Error("first run: the one save went out without the tape")
				}
			}

			// A second session over the same store loads it and writes nothing.
			s2, chain := session()
			if err := run(s2, sh); err != nil {
				t.Fatal(err)
			}
			ledger("second session", s2, chain, 1, 1, 0)
			saves("second session", 1)
			if st := s2.PlanStats(); persists && (st.TapeLoaded != 1 || st.TapeRecords != 0) {
				t.Errorf("second session: %+v; want the tape loaded, nothing recorded", st)
			}

			// A corrupt blob is a store failure Optional demotes to a miss: the
			// plan is recompiled and rewritten, and the failure is counted once
			// in each ledger and logged once.
			var logged bytes.Buffer
			prev := log.Writer()
			log.SetOutput(&logged)
			defer log.SetOutput(prev)
			if persists {
				blobs, err := filepath.Glob(filepath.Join(dir, "plans", "*.plan"))
				if err != nil || len(blobs) != 1 {
					t.Fatalf("blobs to corrupt: %v, %v", blobs, err)
				}
				data, err := os.ReadFile(blobs[0])
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-1] ^= 0x10
				if err := os.WriteFile(blobs[0], data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s3, chain := session()
			if err := run(s3, sh); err != nil {
				t.Fatalf("corrupt blob failed the run: %v", err)
			}
			ledger("corrupt blob", s3, chain, 1, 0, 1)
			saves("corrupt blob", 2)
			if persists {
				if st := store.Stats(); st.LoadErrors != 1 {
					t.Errorf("corrupt blob: store counts %d load errors, want 1", st.LoadErrors)
				}
				if st := s3.PlanStats(); st.LastStoreError == "" {
					t.Error("corrupt blob: LastStoreError is empty")
				}
				if n := strings.Count(logged.String(), "store degraded"); n != 1 {
					t.Errorf("corrupt blob: logged %d times, want once:\n%s", n, logged.String())
				}
			}

			// A run the scheduler fails after the miss never executes the plan;
			// the miss saved it all the same, taped.
			faults.Set("sched.dispatch", faults.Point{Count: 1})
			defer faults.Reset()
			if err := run(s3, other); !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("dispatch failpoint: %v", err)
			}
			ledger("rejected run", s3, chain, 2, 0, 1)
			saves("rejected run", 3)
			if persists {
				if p, ok, err := store.Load(planKey(s3, other)); err != nil || !ok {
					t.Fatalf("rejected run: stored plan ok=%v err=%v", ok, err)
				} else if tape, _ := p.Tape(); tape == nil {
					t.Error("rejected run: the miss stored the plan without its tape")
				}
			}
		})
	}
}

func planKey(s *Session, sh Shape) Key { return plan.KeyOf(sh.request(s.opt)) }
