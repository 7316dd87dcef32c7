package wse

// The one plan miss path through the public surface: with a store attached
// or without, a miss is one call of the miss function, PlanStats' store
// fields read its ledger, and a plan reaches the store once.

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
)

func TestOnePlanMissPath(t *testing.T) {
	ctx := context.Background()
	sh := Shape{Kind: KindReduce, Alg: Chain, P: 6, B: 4}
	other := Shape{Kind: KindReduce, Alg: Chain, P: 7, B: 4}
	ones := func(n int) []float32 { return []float32{1, 1, 1, 1}[:n] }

	for _, c := range []struct {
		name  string
		store bool
	}{
		{"nothing attached", false},
		{"Store", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenPlanStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			persists := c.store
			// session builds a fresh session in the configuration under test.
			session := func() *Session {
				var cfg SessionConfig
				if c.store {
					cfg.Store = store
				}
				s := NewSession(cfg)
				t.Cleanup(func() { s.Close() })
				return s
			}
			// ledger checks PlanStats against the miss ledger it is read from
			// and against what the step expects.
			ledger := func(step string, s *Session, misses, storeHits, storeErrs int64) {
				t.Helper()
				st := s.PlanStats()
				storeLookups := misses
				if !persists {
					storeLookups, storeHits, storeErrs = 0, 0, 0
				}
				if st.Misses != misses || st.StoreHits != storeHits || st.StoreErrors != storeErrs {
					t.Errorf("%s: PlanStats %+v; want %d misses, %d store hits, %d store errors", step, st, misses, storeHits, storeErrs)
				}
				m := st.Miss
				if m.Store.Hits+m.Store.Misses+m.Store.Errors != m.Store.Lookups || m.Compile.Hits+m.Compile.Errors != m.Compile.Lookups {
					t.Errorf("%s: the miss ledger does not balance: %+v", step, m)
				}
				if m.Store.Lookups != storeLookups || m.Store.Hits != st.StoreHits || m.Store.Errors+m.SaveErrors != st.StoreErrors {
					t.Errorf("%s: the miss ledger %+v; want %d store lookups, and PlanStats' store fields read from it", step, m, storeLookups)
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
			s1 := session()
			if err := run(s1, sh); err != nil {
				t.Fatal(err)
			}
			ledger("first run", s1, 1, 0, 0)
			saves("first run", 1)
			if persists {
				if p, ok, err := store.Load(planKey(s1, sh)); err != nil || !ok {
					t.Fatalf("first run: stored plan ok=%v err=%v", ok, err)
				} else if tape := p.Tape(); tape == nil {
					t.Error("first run: the one save went out without the tape")
				}
			}

			// A second session over the same store loads it and writes nothing.
			s2 := session()
			if err := run(s2, sh); err != nil {
				t.Fatal(err)
			}
			ledger("second session", s2, 1, 1, 0)
			saves("second session", 1)
			if st := s2.PlanStats(); persists && (st.TapeLoaded != 1 || st.TapeRecords != 0) {
				t.Errorf("second session: %+v; want the tape loaded, nothing recorded", st)
			}

			// A corrupt blob is a store failure the miss absorbs: the plan is
			// recompiled and rewritten, and the failure is counted once
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
			s3 := session()
			if err := run(s3, sh); err != nil {
				t.Fatalf("corrupt blob failed the run: %v", err)
			}
			ledger("corrupt blob", s3, 1, 0, 1)
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
			ledger("rejected run", s3, 2, 0, 1)
			saves("rejected run", 3)
			if persists {
				if p, ok, err := store.Load(planKey(s3, other)); err != nil || !ok {
					t.Fatalf("rejected run: stored plan ok=%v err=%v", ok, err)
				} else if tape := p.Tape(); tape == nil {
					t.Error("rejected run: the miss stored the plan without its tape")
				}
			}
		})
	}
}

func planKey(s *Session, sh Shape) plan.Key { return plan.KeyOf(sh.request(s.opt)) }
