package plan

import (
	"context"
	"errors"
	"time"
)

type sequentialStage struct {
	*meter
	children []Resolver
}

// Sequential composes stages tried in order: the first hit wins, a miss
// (ErrNotFound) falls through to the next stage, and any other failure
// is mandatory — the lookup fails with a *StageError naming the broken
// stage. Wrap fallible stages in Optional to let the chain degrade past
// them. All children missing is the chain's miss.
func Sequential(children ...Resolver) Resolver {
	return &sequentialStage{meter: newMeter("sequential"), children: children}
}

func (s *sequentialStage) Resolve(ctx context.Context, key Key) (*Plan, error) {
	start := time.Now()
	for _, child := range s.children {
		if err := ctx.Err(); err != nil {
			s.observe(start, err)
			return nil, err
		}
		p, err := child.Resolve(ctx, key)
		switch {
		case err == nil:
			s.observe(start, nil)
			return p, nil
		case errors.Is(err, ErrNotFound):
			continue
		default:
			serr := &StageError{Stage: child.Name(), Err: err}
			s.observe(start, serr)
			return nil, serr
		}
	}
	s.observe(start, ErrNotFound)
	return nil, ErrNotFound
}

func (s *sequentialStage) Stats() []StageStats { return statsOver(s.meter, s.children) }

func (s *sequentialStage) attach(a *attachment) { attachOver(s.meter, s.children, a) }

// statsOver is a combinator's entry followed by its children's.
func statsOver(m *meter, children []Resolver) []StageStats {
	out := m.Stats()
	for _, child := range children {
		out = append(out, child.Stats()...)
	}
	return out
}

func attachOver(m *meter, children []Resolver, a *attachment) {
	m.attach(a)
	for _, child := range children {
		attach(child, a)
	}
}

type parallelStage struct {
	*meter
	children []Resolver
}

// Parallel composes stages raced concurrently: the first hit wins and
// cancels the losers (their contexts fire; a slower peer abandons its
// fetch). A mandatory child's failure fails the whole race immediately;
// every child missing (or being optional-degraded to a miss) is the
// stage's miss. Use for racing several peers for the same plan —
// whoever holds it answers, nobody waits for the slowest.
func Parallel(children ...Resolver) Resolver {
	return &parallelStage{meter: newMeter("parallel"), children: children}
}

type raceResult struct {
	p   *Plan
	err error
}

func (s *parallelStage) Resolve(ctx context.Context, key Key) (*Plan, error) {
	start := time.Now()
	if len(s.children) == 0 {
		s.observe(start, ErrNotFound)
		return nil, ErrNotFound
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered to len(children): losers complete into the buffer and
	// exit — no goroutine blocks on a result nobody will read.
	results := make(chan raceResult, len(s.children))
	for _, child := range s.children {
		go func(r Resolver) {
			p, err := r.Resolve(rctx, key)
			if err != nil && !errors.Is(err, ErrNotFound) {
				var se *StageError
				if !errors.As(err, &se) {
					err = &StageError{Stage: r.Name(), Err: err}
				}
			}
			results <- raceResult{p, err}
		}(child)
	}
	var firstErr error
	for range s.children {
		res := <-results
		switch {
		case res.err == nil:
			s.observe(start, nil)
			return res.p, nil // defer cancels the losers
		case errors.Is(res.err, ErrNotFound):
			continue
		default:
			if firstErr == nil {
				// Mandatory failure: stop the race now. Remaining children
				// drain into the buffer after cancellation; their ctx
				// errors are collateral, only the instigator is reported.
				firstErr = res.err
				cancel()
			}
		}
	}
	if firstErr != nil {
		s.observe(start, firstErr)
		return nil, firstErr
	}
	s.observe(start, ErrNotFound)
	return nil, ErrNotFound
}

func (s *parallelStage) Stats() []StageStats { return statsOver(s.meter, s.children) }

func (s *parallelStage) attach(a *attachment) { attachOver(s.meter, s.children, a) }
