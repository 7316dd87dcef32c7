package resolve

import (
	"context"
	"fmt"
	"time"

	"repro/client"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/planstore"
)

// Peer returns a stage resolving plans from the daemon at baseURL: GET
// /v1/plans/{key} through the retrying client (backoff, breaker,
// deadline forwarding), then the planstore codec decodes and
// hash-verifies the blob. Compile-once-serve-everywhere: a plan any
// fleet member holds is a few hundred microseconds of wire+decode away,
// versus recompiling it. cfg.BaseURL is overwritten with baseURL;
// zero-valued knobs get in-fleet defaults snappier than the client
// package's serving-grade ones (2 attempts, 50ms base backoff, 2s per
// attempt, breaker at 3) — a fleet peer is on the same network segment and
// the compiler is always available behind it, so failing fast into the next
// stage beats patient retrying.
func Peer(baseURL string, cfg client.Config) Resolver {
	cfg.BaseURL = baseURL
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 2
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 2 * time.Second
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	c := client.New(cfg)
	return plan.Leaf("peer "+baseURL, func(ctx context.Context, key plan.Key, sp *obs.Span) (*plan.Plan, error) {
		sp.SetAttr("peer", baseURL)
		return fetch(ctx, c, baseURL, key)
	})
}

func fetch(ctx context.Context, c *client.Client, url string, key plan.Key) (*plan.Plan, error) {
	if err := faults.Inject("resolve.peer"); err != nil {
		return nil, fmt.Errorf("peer %s: %w", url, err)
	}
	blob, ok, err := c.PlanBlob(ctx, key.String())
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", url, err)
	}
	if !ok {
		return nil, ErrNotFound
	}
	p, _, err := planstore.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("peer %s: bad blob: %w", url, err)
	}
	// The codec verified the blob's integrity; this verifies its
	// identity — a peer answering with a well-formed blob for the wrong
	// key must not poison the cache.
	if p.Key != key {
		return nil, fmt.Errorf("peer %s: key mismatch: asked %s, got %s", url, key, p.Key)
	}
	return p, nil
}
