package wse

// Distributed plan resolution: the fleet-facing slice of the Session
// surface. A resolver chain (internal/resolve, plugged in through
// SessionConfig.Resolver) is the cache's miss path — local store,
// remote peers, compile as last resort — and the methods
// here are what the serving layer builds fleet features from: PlanBlob
// serves a session's plans to peers by canonical key, Prefetch warms a
// plan over the wire, KeyString is the consistent-hash routing key.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/plan"
	"repro/internal/planstore"
)

// Resolver materialises the plan for a key: the miss path of the
// session's plan cache, with per-stage stats. Build one from
// internal/resolve's stages and combinators.
type Resolver = plan.Resolver

// Key is a plan's canonical content identity — the cache key, the plan
// store address preimage, and the fleet routing key.
type Key = plan.Key

// ErrPlanNotFound is returned by PlanBlob when neither the session's
// cache nor its store holds the requested plan. The blob endpoint maps
// it to 404 — a peer's miss, not a failure.
var ErrPlanNotFound = errors.New("wse: plan not found")

// ParseKey parses the canonical textual key form (Key.String) back into
// a Key — how a daemon's blob endpoint turns a wire path element into a
// cache lookup.
func ParseKey(s string) (Key, error) { return plan.ParseKey(s) }

// KeyString returns the canonical key string for sh under opt, applying
// the session MaxCycles default exactly as NewSession does — so a front
// process that never builds a Session routes with the same keys its
// workers cache under.
func KeyString(sh Shape, opt Options) string {
	if opt.MaxCycles == 0 {
		opt.MaxCycles = DefaultSessionMaxCycles
	}
	return plan.KeyOf(sh.request(opt)).String()
}

// Keys returns the canonical keys of every plan resident in the
// session's cache, most recently used first.
func (s *Session) Keys() []Key {
	plans := s.s.Plans()
	out := make([]Key, len(plans))
	for i, p := range plans {
		out[i] = p.Key
	}
	return out
}

// PlanBlob returns the encoded blob (planstore codec frame) for the
// plan named by the canonical key string: the store's raw frame when one
// is attached (a verified file read — no decode, no re-encode), else
// encoded from the cache when resident. It never compiles — a peer
// asking for a plan it could compile itself must not be able to spend
// this session's CPU — and returns ErrPlanNotFound on a clean miss, or
// an ErrBadShape-wrapped error for an unparseable key.
func (s *Session) PlanBlob(keyStr string) ([]byte, error) {
	key, err := plan.ParseKey(keyStr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadShape, err)
	}
	if s.store != nil {
		switch blob, ok, err := s.store.LoadBlob(key); {
		case err != nil:
			return nil, err
		case ok:
			return blob, nil
		}
	}
	// Resident but not stored (no store attached, or its save failed):
	// re-encode from the cache. Determinism makes this exact — the
	// encoding equals what a store would have persisted.
	if p, ok := s.s.Resident(key); ok {
		blob, _, err := planstore.Encode(p)
		return blob, err
	}
	return nil, ErrPlanNotFound
}

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
