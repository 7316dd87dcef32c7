package plan

import (
	"context"

	"repro/internal/obs"
)

// Write-back: how a plan a chain materialised reaches a plan store. A stored
// frame carries the plan's replay tape when the plan has one, and a plan a
// session is about to execute for the first time is about to have one. So a
// stage that wants a plan in a store does not save it: it lays a claim on the
// plan (claim), and the claim is made good by settle — with whatever tape the
// plan has by then. Who calls settle is the whole write policy:
//
//   - a chain resolved on its own settles before Resolve returns (the
//     WriteBack stage does): the plan is saved at once;
//   - a chain a Cache owns leaves a plan whose tape is still open alone. A
//     lookup that executes the plan (Session.Run and its kin) lets the
//     recording execution settle it, so the frame is written once, tape
//     included, instead of once after the compile and again after the
//     recording; a lookup nothing executes behind (Cache.Get, Session.Plan,
//     Prefetch, Warm) settles before it returns.
//
// A claim outlives a settle that found the tape still open: the tape that
// lands later is worth a second write, which is also how a store of tapeless
// frames heals.

// writeBack is one store's claim on a plan.
type writeBack struct {
	ps    PlanStore
	onErr func(error)
	// stored: the store holds the plan already; only a tape is news to it.
	stored bool
}

// claim registers that ps is to hold p. stored reports that p was just
// loaded from ps, so only a tape it lacks is worth writing. Failed saves go
// to onErr, on the goroutine that ran settle, and never fail a lookup.
func (p *Plan) claim(ps PlanStore, stored bool, onErr func(error)) {
	r := &p.replay
	r.wbMu.Lock()
	defer r.wbMu.Unlock()
	if stored && r.tape.Load() != nil {
		return // it came with its tape: ps has nothing to learn
	}
	r.pending = append(r.pending, writeBack{ps: ps, onErr: onErr, stored: stored})
}

// saveTo is the save itself, under its span.
func (p *Plan) saveTo(ctx context.Context, ps PlanStore) error {
	_, sp := obs.Start(ctx, "planstore.save")
	defer sp.End()
	tape, _ := p.Tape()
	sp.SetAttr("tape_events", tape.Events())
	sp.SetAttr("tape_runs", tape.Runs())
	err := ps.Save(p)
	sp.SetError(err)
	return err
}

// settled reports whether the plan's tape can no longer change: it has one,
// or never will.
func (r *replayState) settled() bool {
	st := r.state.Load()
	return st == tapeReady || st == tapeDeclined
}

// settle makes the plan's pending saves: every one the store has not seen,
// and, once there is a tape, the ones it has seen without. They stay pending
// while a tape may still land. It is called by the execution that decided
// the tape's fate, and for lookups whose execution never comes.
func (p *Plan) settle(ctx context.Context) {
	r := &p.replay
	r.wbMu.Lock()
	defer r.wbMu.Unlock()
	taped, settled, keep := r.tape.Load() != nil, r.settled(), r.pending[:0]
	for _, wb := range r.pending {
		if !wb.stored || taped {
			if err := p.saveTo(ctx, wb.ps); err != nil {
				wb.onErr(err)
			}
			wb.stored = true
		}
		if !settled {
			keep = append(keep, wb)
		}
	}
	clear(r.pending[len(keep):])
	r.pending = keep
}
