package planstore

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestFailpoints: the planstore.load / planstore.save sites fail the
// store operations before any disk I/O, with the failures counted in
// store stats — the seam chaos runs degrade through.
func TestFailpoints(t *testing.T) {
	defer faults.Reset()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := mustCompile(t, storeReq(8))
	if _, err := s.Put(p); err != nil {
		t.Fatal(err)
	}

	faults.Set("planstore.load", faults.Point{Count: 1})
	if _, _, err := s.Load(p.Key); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Load under failpoint: %v", err)
	}
	if _, ok, err := s.Load(p.Key); err != nil || !ok {
		t.Fatalf("Load after failpoint exhausted: ok=%v err=%v", ok, err)
	}

	faults.Set("planstore.save", faults.Point{Count: 1})
	if err := s.Save(p); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Save under failpoint: %v", err)
	}
	if err := s.Save(p); err != nil {
		t.Fatalf("Save after failpoint exhausted: %v", err)
	}

	st := s.Stats()
	if st.LoadErrors != 1 || st.SaveErrors != 1 {
		t.Fatalf("stats after injected faults: %+v", st)
	}
}

// TestPutDoesNotStallLoad: Put encodes and writes its temp file outside the
// store's lock, so a write-back stuck at the blob write (the planstore.write
// site, in latency mode) leaves a concurrent Load of another key free to
// look its blob up and return first.
func TestPutDoesNotStallLoad(t *testing.T) {
	defer faults.Reset()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stored := mustCompile(t, storeReq(8))
	if _, err := s.Put(stored); err != nil {
		t.Fatal(err)
	}

	other := mustCompile(t, storeReq(9))
	faults.Set("planstore.write", faults.Point{Mode: faults.ModeLatency, Delay: 500 * time.Millisecond})
	putDone := make(chan error, 1)
	go func() {
		_, err := s.Put(other)
		putDone <- err
	}()
	for faults.Fired("planstore.write") == 0 { // the Put is inside its blob write
		select {
		case err := <-putDone:
			t.Fatalf("Put returned before reaching its blob write: %v", err)
		default:
			runtime.Gosched()
		}
	}
	if _, ok, err := s.Load(stored.Key); err != nil || !ok {
		t.Fatalf("Load beside a Put in flight: ok=%v err=%v", ok, err)
	}
	select {
	case err := <-putDone:
		t.Fatalf("Put returned (%v) before the concurrent Load did: its blob write did not stall", err)
	default:
	}
	if err := <-putDone; err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load(other.Key); err != nil || !ok {
		t.Fatalf("Load of the stalled Put's plan once it returned: ok=%v err=%v", ok, err)
	}
}
