// Package faults is a failpoint registry for fault-tolerance testing:
// named injection sites compiled into the serving stack's hot seams
// (plan-store reads and writes, plan compilation, fabric execution,
// scheduler dispatch, every serve handler) that cost one atomic load when
// nothing is armed and can be armed — per site — to fail with an error,
// panic, or injected latency, with a trigger probability and a bounded
// trigger count.
//
// The registry exists to make degradation provable: a chaos test arms
// "fabric.exec=panic:count=1" and asserts the daemon survives, a soak
// arms "planstore.load=error:p=0.05" and asserts accounting still
// balances. Production code never pays for that provability — Inject
// compiles to a single atomic load and a predicted-not-taken branch while
// the registry is empty.
//
// Activation is programmatic (Enable, or Set for tests that want exact
// control) or environmental: the WSE_FAILPOINTS variable is parsed at
// init, so a daemon under chaos is just
//
//	WSE_FAILPOINTS="planstore.load=error:p=0.05;fabric.exec=panic:count=1" wsed ...
//
// Spec grammar: semicolon-separated site=mode[:param]* entries, where
// mode is error, panic or latency and params are p=<0..1> (trigger
// probability, default 1), count=<n> (disarm after n triggers, default
// unbounded) and delay=<duration> (latency mode's sleep, default 10ms).
//
// The standard sites wired through the stack:
//
//	planstore.load   Store.Load fails before touching disk
//	planstore.save   Store.Save fails before touching disk
//	planstore.write  Store.Save fails (or, in delay mode, stalls) at the
//	                 blob write, after encoding and outside the store's lock
//	plan.compile     plan.Compile fails before lowering
//	fabric.exec      Plan replay fails (or panics) inside the worker
//	sched.dispatch   the scheduler worker fails the request at dispatch
//	serve.<endpoint> the HTTP handler fails before its verb (run,
//	                 predict, bound, submit, jobs, warm)
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is wrapped by every error an armed failpoint returns; test
// with errors.Is. Serving layers treat injected errors like any other
// internal failure (HTTP 500), which is the point — the fault path under
// test is the real one.
var ErrInjected = errors.New("faults: injected failure")

// Mode is what an armed failpoint does when it triggers.
type Mode int

const (
	// ModeError makes Inject return an error wrapping ErrInjected.
	ModeError Mode = iota
	// ModePanic makes Inject panic — the probe for panic-isolation
	// layers (scheduler workers, serve handlers recover it).
	ModePanic
	// ModeLatency makes Inject sleep for Delay and return nil — the
	// probe for deadline enforcement.
	ModeLatency
)

func (m Mode) String() string {
	switch m {
	case ModePanic:
		return "panic"
	case ModeLatency:
		return "latency"
	default:
		return "error"
	}
}

// Point arms one site. The zero value triggers ModeError on every
// Inject, forever. Plain value semantics: the registry copies it on Set.
type Point struct {
	Mode Mode
	// P is the trigger probability per Inject (<= 0 or >= 1 means
	// always).
	P float64
	// Count, when positive, bounds how many times the point triggers;
	// after Count triggers the point disarms itself.
	Count int64
	// Delay is ModeLatency's sleep (<= 0 selects 10ms).
	Delay time.Duration
}

// armedSite is a Point plus its mutable trigger state, all guarded by
// the registry mutex.
type armedSite struct {
	Point
	remaining int64
	fired     int64
}

// registry state. `armed` is the fast-path gate: Inject bails on
// armed == 0 before taking any lock, so a stack with no failpoints pays
// one atomic load per seam and allocates nothing.
var (
	armed atomic.Int32
	mu    sync.Mutex
	sites map[string]*armedSite
	rng   = rand.New(rand.NewSource(1))
)

// Inject is the seam call: it returns nil instantly when no failpoint is
// armed anywhere, and otherwise consults the registry for site — failing,
// panicking or sleeping per the armed Point. Layers call it at the top of
// their fallible operations:
//
//	if err := faults.Inject("planstore.load"); err != nil {
//		return nil, false, err
//	}
func Inject(site string) error {
	if armed.Load() == 0 {
		return nil
	}
	return trigger(site)
}

// trigger is the slow path: at least one site is armed somewhere.
func trigger(site string) error {
	mu.Lock()
	p := sites[site]
	if p == nil {
		mu.Unlock()
		return nil
	}
	if p.P > 0 && p.P < 1 && rng.Float64() >= p.P {
		mu.Unlock()
		return nil
	}
	if p.Count > 0 {
		p.remaining--
		if p.remaining < 0 {
			// Exhausted: disarm so later Injects take the fast path again.
			delete(sites, site)
			armed.Add(-1)
			mu.Unlock()
			return nil
		}
	}
	p.fired++
	mode, delay := p.Mode, p.Delay
	mu.Unlock()

	switch mode {
	case ModePanic:
		panic(fmt.Sprintf("faults: injected panic at %s", site))
	case ModeLatency:
		if delay <= 0 {
			delay = 10 * time.Millisecond
		}
		time.Sleep(delay)
		return nil
	default:
		return fmt.Errorf("%w at %s", ErrInjected, site)
	}
}

// Set arms (or re-arms) a single site. Tests use it for exact control:
//
//	faults.Set("fabric.exec", faults.Point{Mode: faults.ModePanic, Count: 1})
//	defer faults.Reset()
func Set(site string, p Point) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*armedSite)
	}
	np := &armedSite{Point: p, remaining: p.Count}
	if _, ok := sites[site]; !ok {
		armed.Add(1)
	}
	sites[site] = np
}

// Clear disarms one site; it reports whether the site was armed.
func Clear(site string) bool {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[site]; !ok {
		return false
	}
	delete(sites, site)
	armed.Add(-1)
	return true
}

// Reset disarms every site and re-seeds the probability RNG — the test
// epilogue that restores the zero-overhead fast path.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int32(len(sites)))
	sites = nil
	rng = rand.New(rand.NewSource(1))
}

// SetSeed re-seeds the probability RNG so probabilistic chaos schedules
// replay deterministically.
func SetSeed(seed int64) {
	mu.Lock()
	defer mu.Unlock()
	rng = rand.New(rand.NewSource(seed))
}

// Fired returns how many times the site has triggered since it was
// armed (0 for unarmed sites).
func Fired(site string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p := sites[site]; p != nil {
		return p.fired
	}
	return 0
}

// Active lists the armed sites as "site=mode[:params]" specs, sorted —
// what a daemon logs at startup so a chaos run is self-describing.
func Active() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(sites))
	for site, p := range sites {
		spec := site + "=" + p.Mode.String()
		if p.P > 0 && p.P < 1 {
			spec += fmt.Sprintf(":p=%g", p.P)
		}
		if p.Count > 0 {
			spec += fmt.Sprintf(":count=%d", p.Count)
		}
		if p.Mode == ModeLatency && p.Delay > 0 {
			spec += fmt.Sprintf(":delay=%s", p.Delay)
		}
		out = append(out, spec)
	}
	sort.Strings(out)
	return out
}

// Enable parses a failpoint spec (the WSE_FAILPOINTS grammar above) and
// arms every entry. Entries are applied left to right; a malformed entry
// fails the whole call without arming anything.
func Enable(spec string) error {
	type parsed struct {
		site string
		p    Point
	}
	var entries []parsed
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		site, rest, ok := strings.Cut(item, "=")
		site = strings.TrimSpace(site)
		if !ok || site == "" {
			return fmt.Errorf("faults: bad entry %q (want site=mode[:param]*)", item)
		}
		parts := strings.Split(rest, ":")
		var p Point
		switch strings.TrimSpace(parts[0]) {
		case "error":
			p.Mode = ModeError
		case "panic":
			p.Mode = ModePanic
		case "latency":
			p.Mode = ModeLatency
		default:
			return fmt.Errorf("faults: bad mode %q in %q (error, panic, latency)", parts[0], item)
		}
		for _, param := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(param), "=")
			if !ok {
				return fmt.Errorf("faults: bad param %q in %q", param, item)
			}
			switch k {
			case "p":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f < 0 || f > 1 {
					return fmt.Errorf("faults: bad probability %q in %q", v, item)
				}
				p.P = f
			case "count":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 1 {
					return fmt.Errorf("faults: bad count %q in %q", v, item)
				}
				p.Count = n
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil || d <= 0 {
					return fmt.Errorf("faults: bad delay %q in %q", v, item)
				}
				p.Delay = d
			default:
				return fmt.Errorf("faults: unknown param %q in %q (p, count, delay)", k, item)
			}
		}
		entries = append(entries, parsed{site: site, p: p})
	}
	for _, e := range entries {
		Set(e.site, e.p)
	}
	return nil
}

// EnvVar is the environment variable init arms failpoints from.
const EnvVar = "WSE_FAILPOINTS"

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := Enable(spec); err != nil {
			// A daemon launched with a bad chaos spec should hear about it
			// loudly rather than run an unfaulted schedule silently.
			panic(err)
		}
	}
}
