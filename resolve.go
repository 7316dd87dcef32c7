package wse

// The plan miss path on the public surface. A session's plan cache misses
// through one resolver chain — the store-then-compile preset
// SessionConfig.Store attaches, a chain SessionConfig.Resolver names, or
// the bare compiler — and Prefetch fills the cache through it ahead of
// traffic.

import (
	"context"

	"repro/internal/plan"
)

// Resolver materialises the plan for a key: the miss path of the
// session's plan cache, with per-stage stats. Build one from
// internal/resolve's stages and combinators.
type Resolver = plan.Resolver

// Key is a plan's canonical content identity — the cache key and the plan
// store address preimage.
type Key = plan.Key

// Resolver returns the session's plan miss path: the chain
// SessionConfig.Resolver named, the store-then-compile chain
// SessionConfig.Store attached, or the bare compiler. Its Stats are the
// per-stage ledger PlanStats' store fields are read from.
func (s *Session) Resolver() Resolver { return s.s.Resolver() }

// Prefetch materialises the plan for sh into the session's cache —
// through the resolver chain when one is attached — so the shape's first
// real request pays no compile, and no simulator run either when the plan
// arrived with its replay tape. It reports whether a fetch actually ran
// (false: already resident or coalesced onto an in-flight fill). This is
// what the daemon's /v1/warm endpoint calls per shape: remote warming
// without filesystem access.
func (s *Session) Prefetch(ctx context.Context, sh Shape) (bool, error) {
	if err := sh.Validate(); err != nil {
		return false, err
	}
	return s.s.Prefetch(ctx, sh.request(s.opt))
}
