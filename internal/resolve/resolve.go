// Package resolve is the network half of the resolver chain that fills a
// plan cache: the Peer stage, which fetches plans from another daemon's
// blob endpoint, and the consistent-hash Ring a front routes by. The chain
// itself — the Resolver contract, per-stage Stats, the Store and Compiler
// stages and the Sequential/Parallel/Optional/WriteBack combinators — lives
// beside the cache it fills (internal/plan, stage.go), because that package
// and internal/planstore attach stores to a bare Cache and cannot import
// this one; the names are re-exported here, so a chain reads
//
//	resolve.Sequential(
//		resolve.Optional(resolve.Store(store)),
//		resolve.Optional(resolve.WriteBack(resolve.Peer(url, cfg), store)),
//		resolve.WriteBack(resolve.Compiler(), store))
//
// wherever it is built.
package resolve

import "repro/internal/plan"

// The chain contract and its stages, declared in internal/plan.
type (
	Resolver   = plan.Resolver
	Stats      = plan.StageStats
	StageError = plan.StageError
	PlanStore  = plan.PlanStore
)

// ErrNotFound is the canonical miss (plan.ErrNotFound).
var ErrNotFound = plan.ErrNotFound

// The stages and combinators, likewise.
var (
	Store      = plan.Store
	Compiler   = plan.Compiler
	WriteBack  = plan.WriteBack
	Optional   = plan.Optional
	Sequential = plan.Sequential
	Parallel   = plan.Parallel
)
