package fabric

// Recording is a recording run before the run former has seen it: the raw
// events, for the tests outside the package that compare the tape's walk
// with the event-at-a-time one (referenceWalk) and time the former.
type Recording struct {
	f   *Fabric
	rec *recorder
}

// RecordRaw runs the armed fabric like Record and stops short of the tape.
func (f *Fabric) RecordRaw() (*Recording, error) {
	rec, err := f.record()
	if err != nil {
		return nil, err
	}
	return &Recording{f, rec}, nil
}

// Tape is the tape Record would have returned.
func (r *Recording) Tape() (*Tape, error) { return r.f.tapeOf(r.rec) }

// Events is the number of raw events.
func (r *Recording) Events() int { return len(r.rec.events) }

// FormRuns runs the former alone and returns how many runs it made.
func (r *Recording) FormRuns() int { return len(r.rec.formRuns()) }

// ReferenceWalk applies the raw events to the image one at a time.
func (r *Recording) ReferenceWalk(acc []float32) { referenceWalk(r.rec.events, r.rec.waves, acc) }

// Walk is the tape's walk over the image, without a Result around it.
func (t *Tape) Walk(acc []float32) { t.apply(acc) }

// RunLens is the length of every run, in tape order.
func (t *Tape) RunLens() []int {
	lens := make([]int, len(t.runs))
	for i, r := range t.runs {
		lens[i] = int(r.n)
	}
	return lens
}

// SameWalk is the differential check of tape_test.go, for the tests that
// take their programs from the plan compiler.
var SameWalk = sameWalk

// SetAgeRingStride makes the engine sweep its ring every n cycles (a power
// of two) until the returned func restores the stride.
func SetAgeRingStride(n int64) (restore func()) {
	old := ageRingStride
	ageRingStride = n
	return func() { ageRingStride = old }
}
