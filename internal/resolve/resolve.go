// Package resolve keeps the names the bench harness builds a plan miss
// from — Sequential(Store(s), WriteBack(Compiler(), s)) — and reads back —
// Stats with a "store" and a "compile" entry. They are no longer
// combinators: a plan cache misses through internal/plan's one miss path
// (miss.go), and every Resolver here runs that miss over the store its
// constructor names, on a cache of its own per call, so a resident plan
// never cuts it short. Nothing outside bench/ imports this package; it goes
// when bench/ stops building chains (ROADMAP 1(a)).
package resolve

import (
	"context"
	"sync"

	"repro/internal/plan"
)

// Stats is one step of the miss: Hits + Misses + Errors == Lookups.
type Stats struct {
	Stage                         string
	Lookups, Hits, Misses, Errors int64
}

// Resolver makes the plan for a key and counts its steps.
type Resolver interface {
	Resolve(ctx context.Context, key plan.Key) (*plan.Plan, error)
	Stats() []Stats
}

// Store is the miss over ps.
func Store(ps plan.PlanStore) Resolver { return &miss{store: ps} }

// WriteBack is the miss over ps, the store inner's compiles are saved to.
func WriteBack(_ Resolver, ps plan.PlanStore) Resolver { return &miss{store: ps} }

// Compiler is the miss over no store: compile only.
func Compiler() Resolver { return &miss{} }

// Sequential is the miss over the first store its children name.
func Sequential(children ...Resolver) Resolver {
	for _, c := range children {
		if m, ok := c.(*miss); ok && m.store != nil {
			return &miss{store: m.store}
		}
	}
	return &miss{}
}

type miss struct {
	store plan.PlanStore // nil: compile only
	mu    sync.Mutex
	steps [2]Stats // the store's and the compiler's, summed over calls
}

func (m *miss) Resolve(ctx context.Context, key plan.Key) (*plan.Plan, error) {
	c := plan.NewCache(1)
	c.SetStore(m.store)
	p, err := c.GetCtx(ctx, key.Request())
	st := c.Stats().Miss
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, s := range [2]plan.MissStep{st.Store, st.Compile} {
		m.steps[i].Lookups += s.Lookups
		m.steps[i].Hits += s.Hits
		m.steps[i].Misses += s.Misses
		m.steps[i].Errors += s.Errors
	}
	return p, err
}

func (m *miss) Stats() []Stats {
	m.mu.Lock()
	out := m.steps
	m.mu.Unlock()
	out[0].Stage, out[1].Stage = "store", "compile"
	return out[:]
}
