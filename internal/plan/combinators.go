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
