package wse

// Plan persistence: the compile-once promise made durable. A PlanStore is
// a content-addressed directory of encoded plans (versioned binary codec,
// SHA-256 addresses, atomic writes, integrity verification with corrupt-
// entry quarantine). A staging process compiles its shape list into the
// store with Warm (or serves over it: a store-backed session writes each
// plan through when it makes it); serving processes warm their plan caches
// from the store before taking traffic, so no request ever pays a compile
// on the serving path:
//
//	store, _ := wse.OpenPlanStore("/var/lib/wse/plans")
//	s := wse.NewSession(wse.SessionConfig{Store: store}) // read/write-through
//	s.Warm(store, nil)                                   // preload everything
//
// Decoded plans replay bit-identically to freshly compiled ones — same
// per-PE results, same cycle counts, same RNG chain.

import (
	"repro/internal/plan"
	"repro/internal/planstore"
)

// PlanStore is a durable content-addressed collection of compiled plans
// rooted at a directory. It is safe for concurrent use and may be shared
// by several Sessions (or processes, on a shared filesystem).
type PlanStore = planstore.Store

// OpenPlanStore opens (creating if needed) a plan store rooted at dir.
func OpenPlanStore(dir string) (*PlanStore, error) {
	return planstore.Open(dir)
}

// PlanStoreStats is the store's operation accounting — successful loads,
// misses, load errors (with the quarantined subset), saves and save
// errors, plus the indexed plan count — snapshotted by PlanStore.Stats.
// Together with Session.PlanStats (cache hits/misses/evictions and the
// session-side StoreHits/StoreErrors) it is the complete observability
// surface of plan persistence; the serving daemon's /metrics endpoint is
// fed from these two snapshots alone.
type PlanStoreStats = planstore.Stats

// Collective names a collective kind in a Shape.
type Collective = plan.Kind

// The collective kinds a Session serves, as Shape.Kind values.
const (
	KindReduce           = plan.Reduce1D
	KindAllReduce        = plan.AllReduce1D
	KindBroadcast        = plan.Broadcast1D
	KindReduce2D         = plan.Reduce2D
	KindAllReduce2D      = plan.AllReduce2D
	KindBroadcast2D      = plan.Broadcast2D
	KindScatter          = plan.Scatter
	KindGather           = plan.Gather
	KindReduceScatter    = plan.ReduceScatter
	KindAllGather        = plan.AllGather
	KindAllReduceMidRoot = plan.AllReduceMidRoot
)

// Shape names a collective — what Run executes, Predict estimates, Bound
// bounds and Warm pre-compiles: the kind, the algorithm (Alg for 1D kinds,
// Alg2D for 2D kinds; leave zero for the algorithm-free kinds), the PE
// geometry (P for 1D, Width×Height for 2D), the vector length B in
// wavelets, and the reduction operator. The call's (or the session's)
// Options complete the plan identity.
type Shape struct {
	Kind          Collective
	Alg           Algorithm
	Alg2D         Algorithm2D
	P             int
	Width, Height int
	B             int
	Op            ReduceOp
}

// WarmStats reports what a Warm pass did: plans decoded from the store,
// plans compiled (and saved back), and shapes already resident.
type WarmStats = plan.WarmStats

func (sh Shape) request(opt Options) plan.Request {
	return plan.Request{
		Kind:   sh.Kind,
		Alg:    sh.Alg,
		Alg2D:  sh.Alg2D,
		P:      sh.P,
		Width:  sh.Width,
		Height: sh.Height,
		B:      sh.B,
		Op:     sh.Op,
		Opt:    opt,
	}
}

// Warm pre-populates the session's plan cache so its first requests
// replay instead of compiling. Shapes found in store are decoded (no
// compilation); missing shapes are compiled under the session's Options
// and saved back to the store, which is also how a deployment compiles
// its shape list into a store ahead of rollout. A nil shapes warms every
// plan the store holds. Warm is safe to run concurrently with live
// traffic on the same session.
func (s *Session) Warm(store *PlanStore, shapes []Shape) (WarmStats, error) {
	var reqs []plan.Request
	if shapes != nil {
		reqs = make([]plan.Request, len(shapes))
		for i, sh := range shapes {
			reqs[i] = sh.request(s.opt)
		}
	}
	var ps plan.KeyedStore
	if store != nil { // keep a nil *PlanStore out of the interface
		ps = store
	}
	return s.s.Warm(ps, reqs)
}
