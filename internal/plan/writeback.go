package plan

import (
	"context"

	"repro/internal/obs"
)

// Write-back: how a plan a miss path materialised reaches a plan store. A
// stored frame carries the plan's replay tape when the plan has one, and a
// plan a session is about to execute for the first time is about to have one
// — so the cache's own write-through (Cache.fill over SetStore) leaves the
// save to that execution and the frame is written once, tape included,
// instead of once after the compile and again after the recording. Every
// other write-back (Warm, Prefetch, Session.Plan, the stages of a resolver
// chain) saves right away; a tape that lands later is then worth a second
// write, which is also how a store of tapeless frames heals.

// Saver is where a write-back lands: the one method of a plan store it needs.
type Saver interface {
	Save(p *Plan) error
}

// writeBack is one store's claim on a plan: a save to make when the plan's
// tape settles.
type writeBack struct {
	ps    Saver
	onErr func(error)
	// stored: the store holds the plan already; only a tape is news to it.
	stored bool
}

// WriteBack sees p into ps now: the write-through site of Session.Warm and
// of resolve's WriteBack and Store stages. have reports that p was just
// loaded from ps, so only a tape it lacks is worth writing. A plan saved
// without its tape is saved once more when the tape lands; a failure of that
// later save goes to onErr, on the goroutine that ran it, and never fails a
// lookup.
func WriteBack(ctx context.Context, p *Plan, ps Saver, have bool, onErr func(error)) error {
	return p.writeBack(ctx, ps, have, false, onErr)
}

// writeBack is WriteBack. afterRun reports that the caller executes p next,
// which leaves the save of a plan whose tape is still open to that execution:
// it is made with the tape the run recorded, or without when the plan turned
// out untapeable or the run failed.
func (p *Plan) writeBack(ctx context.Context, ps Saver, have, afterRun bool, onErr func(error)) error {
	r := &p.replay
	r.wbMu.Lock()
	defer r.wbMu.Unlock()
	taped, settled := r.tape.Load() != nil, r.settled()
	if have && taped {
		return nil // it came with its tape: ps has nothing to learn
	}
	var err error
	if !have && (settled || !afterRun) {
		err = p.saveTo(ctx, ps)
		have = true
	}
	if !settled {
		r.pending = append(r.pending, writeBack{ps: ps, onErr: onErr, stored: have})
	}
	return err
}

// saveTo is the save itself, under its span.
func (p *Plan) saveTo(ctx context.Context, ps Saver) error {
	_, sp := obs.Start(ctx, "planstore.save")
	defer sp.End()
	tape, _ := p.Tape()
	sp.SetAttr("tape_events", tape.Events())
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
// the tape's fate, and for lookups whose execution never came.
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
