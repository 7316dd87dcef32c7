// Package resolve re-exports the resolver chain that fills a plan cache —
// the Resolver contract, per-stage Stats, the Store and Compiler stages
// and the Sequential/Optional/WriteBack combinators — for code outside
// internal/plan. The chain lives beside the cache it fills (internal/plan,
// stage.go), because that package and internal/planstore attach stores to
// a bare Cache; so a chain reads
//
//	resolve.Sequential(
//		resolve.Optional(resolve.Store(store)),
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
)
