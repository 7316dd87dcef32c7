package plan

import (
	"container/list"
	"context"
	"log"
	"sync"

	"repro/internal/obs"
)

// DefaultCacheCapacity bounds a Cache when the caller passes no capacity.
const DefaultCacheCapacity = 128

// CacheStats reports a cache's accounting: Hits counts lookups served
// from a resident or in-flight plan, Misses the lookups that left the
// cache (store load or compile), Evictions the plans dropped at capacity,
// and Size the resident plan count. When a store is attached, StoreHits
// counts the misses that were satisfied by decoding a stored plan instead
// of compiling, and StoreErrors the store operations (load or write-
// through save) that failed — store failures never fail a lookup, they
// just fall back to the compiler. The Tape counters follow the replay tapes
// of the plans the cache holds or ever held (tape.go): TapeRecords counts
// the plans that recorded one, TapeReplays the reports produced by walking
// a tape instead of running the simulator, TapeDeclined the plans found
// untapeable (a Tracer attached, or a program over the tape cap), TapeLoaded
// the plans that arrived with a tape in their stored frame and so never ran
// the simulator here at all.
type CacheStats struct {
	Hits        int64
	Misses      int64
	Evictions   int64
	StoreHits   int64
	StoreErrors int64
	// LastStoreError is the message of the most recent failed store
	// operation ("" while none has failed). Store failures are absorbed —
	// lookups fall back to the compiler — so without this field a dying
	// store is visible only as a bare counter.
	LastStoreError string
	Size           int
	TapeRecords    int64
	TapeReplays    int64
	TapeDeclined   int64
	TapeLoaded     int64
}

// PlanStore is plan persistence as the cache and session consume it: a
// durable keyed collection of encoded plans. The concrete implementation
// is internal/planstore.Store (a content-addressed directory of blobs);
// the interface lives here so the plan subsystem stays free of the
// persistence dependency and tests can substitute in-memory stores.
type PlanStore interface {
	// Load returns the stored plan for key, with ok=false (and no error)
	// when the store has no entry. An error means an entry existed but
	// could not be used (unreadable, corrupt, version-incompatible).
	Load(key Key) (*Plan, bool, error)
	// Save persists a compiled plan, overwriting any entry with the same
	// key.
	Save(p *Plan) error
	// Keys lists the keys of every stored plan.
	Keys() []Key
}

// Resolver materialises the plan for a key: the pluggable miss path of a
// cache (and therefore a Session). The concrete implementation is a
// composable stage chain in internal/resolve — local store, remote peer,
// compile-as-last-resort — but the plan subsystem only sees this one
// method, so it stays free of the network and persistence dependencies.
type Resolver interface {
	Resolve(ctx context.Context, key Key) (*Plan, error)
}

// Cache is a content-keyed LRU of compiled plans. Lookups for the same
// key that race an in-flight compile coalesce onto it (and count as hits)
// instead of compiling twice. With a store attached (SetStore), misses
// try the store before the compiler and freshly compiled plans are
// written through (WriteBack: once their first execution has settled the
// replay tape the frame carries), so a serving process transparently
// accumulates and reuses a durable plan warehouse. A plan the cache holds
// records its tape on its first execution (tape.go).
type Cache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[Key]*list.Element
	lru       list.List // front = most recently used; values are *Plan
	compiling map[Key]*inflight
	store     PlanStore
	resolver  Resolver
	stats     CacheStats
	tape      tapeCounters // of every plan inserted here first
	// storeErrLogged dedupes the store-failure log line: one warning per
	// attached store, not one per degraded request. SetStore resets it, so
	// swapping in a replacement store re-arms the warning.
	storeErrLogged bool
}

type inflight struct {
	done chan struct{}
	plan *Plan
	err  error
}

// NewCache returns a cache holding at most capacity plans
// (DefaultCacheCapacity when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity:  capacity,
		entries:   make(map[Key]*list.Element),
		compiling: make(map[Key]*inflight),
	}
}

// SetStore attaches (or, with nil, detaches) a plan store. Subsequent
// misses read through it and subsequent compiles write through to it.
func (c *Cache) SetStore(ps PlanStore) {
	c.mu.Lock()
	c.store = ps
	c.storeErrLogged = false
	c.mu.Unlock()
}

// SetResolver attaches (or, with nil, detaches) a resolver chain as the
// cache's miss path, replacing the built-in store-load → compile →
// write-through fill. The chain owns its own store/peer/compile policy
// and stats; with a resolver attached, the cache's StoreHits/StoreErrors
// counters stay flat (the equivalent accounting lives per stage in the
// chain). Call before taking traffic, or concurrently — attachment is
// atomic with respect to lookups.
func (c *Cache) SetResolver(r Resolver) {
	c.mu.Lock()
	c.resolver = r
	c.mu.Unlock()
}

// Get returns the plan for req, loading it from the attached store or
// compiling it on a miss.
func (c *Cache) Get(req Request) (*Plan, error) {
	return c.GetCtx(context.Background(), req)
}

// GetCtx is Get with the caller's context threaded into the miss path,
// where a resolver chain's remote stages honour its deadline. Lookups
// that coalesce onto an in-flight miss share the first caller's fill
// (and its context), exactly as they share its compile.
func (c *Cache) GetCtx(ctx context.Context, req Request) (*Plan, error) {
	return c.get(ctx, req, false)
}

// get is GetCtx. executes reports that the caller executes the plan next,
// which lets the cache's own write-through leave a compiled plan's save to
// that execution (writeback.go); a resolver chain's stages save on their own.
func (c *Cache) get(ctx context.Context, req Request, executes bool) (*Plan, error) {
	key := KeyOf(req)
	p, _, err := c.acquire(key, true, c.fill(ctx, key, req, executes))
	return p, err
}

// fill builds the miss path for key: the attached resolver chain when
// one is set, else the legacy store-load → compile → write-through
// (made by the plan's first execution when executes says one follows).
func (c *Cache) fill(ctx context.Context, key Key, req Request, executes bool) func() (*Plan, error) {
	if r := c.resolverHandle(); r != nil {
		return func() (*Plan, error) { return r.Resolve(ctx, key) }
	}
	return func() (*Plan, error) {
		ps := c.storeHandle()
		if ps != nil {
			_, lspan := obs.Start(ctx, "planstore.load")
			p, ok, err := ps.Load(key)
			lspan.SetAttr("hit", ok)
			lspan.SetAttr("tape", ok && p.replay.tape.Load() != nil)
			lspan.SetError(err)
			lspan.End()
			switch {
			case err != nil:
				c.noteStoreError(err)
			case ok:
				c.noteStoreHit()
				WriteBack(ctx, p, ps, true, c.noteStoreError) // saves nothing now: cannot fail
				return p, nil
			}
		}
		_, cspan := obs.Start(ctx, "plan.compile")
		p, err := Compile(req)
		cspan.SetError(err)
		cspan.End()
		if err == nil && ps != nil {
			if serr := p.writeBack(ctx, ps, false, executes, c.noteStoreError); serr != nil {
				c.noteStoreError(serr)
			}
		}
		return p, err
	}
}

// acquire returns the plan for key: residents are served directly,
// lookups racing an in-flight materialisation coalesce onto it, and
// otherwise fetch runs (outside the lock, under the in-flight slot) and
// its result is inserted. count selects whether the lookup participates
// in the hit/miss accounting — serving lookups do, warm-up passes do not.
// The returned bool reports whether fetch ran.
func (c *Cache) acquire(key Key, count bool, fetch func() (*Plan, error)) (*Plan, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		if count {
			c.stats.Hits++
		}
		p := el.Value.(*Plan)
		c.mu.Unlock()
		return p, false, nil
	}
	if fl, ok := c.compiling[key]; ok {
		if count {
			c.stats.Hits++
		}
		c.mu.Unlock()
		<-fl.done
		return fl.plan, false, fl.err
	}
	if count {
		c.stats.Misses++
	}
	fl := &inflight{done: make(chan struct{})}
	c.compiling[key] = fl
	c.mu.Unlock()

	fl.plan, fl.err = fetch()

	c.mu.Lock()
	delete(c.compiling, key)
	if fl.err == nil {
		c.insert(key, fl.plan)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.plan, true, fl.err
}

func (c *Cache) storeHandle() PlanStore {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

func (c *Cache) resolverHandle() Resolver {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resolver
}

// Lookup returns the resident plan for key, refreshing its recency,
// without counting a hit or miss and without triggering any fill. This
// is the memory stage of a resolver chain: the chain consults residency
// here and owns its own per-stage accounting, so a chain-driven lookup
// must not double-count against the cache's serving stats.
func (c *Cache) Lookup(key Key) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*Plan), true
}

// Peek reports whether a plan for req is resident, without compiling or
// touching the stats and recency order.
func (c *Cache) Peek(req Request) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[KeyOf(req)]
	if !ok {
		return nil, false
	}
	return el.Value.(*Plan), true
}

// Plans snapshots the resident plans, most recently used first.
func (c *Cache) Plans() []*Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Plan, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Plan))
	}
	return out
}

func (c *Cache) noteStoreHit() {
	c.mu.Lock()
	c.stats.StoreHits++
	c.mu.Unlock()
}

func (c *Cache) noteStoreError(err error) {
	c.mu.Lock()
	c.stats.StoreErrors++
	c.stats.LastStoreError = err.Error()
	logIt := !c.storeErrLogged
	c.storeErrLogged = true
	c.mu.Unlock()
	if logIt {
		log.Printf("plan: store degraded (falling back to compile; logged once per store): %v", err)
	}
}

// insert adds a plan under key, evicting from the cold end at capacity.
// The caller holds c.mu.
func (c *Cache) insert(key Key, p *Plan) {
	if p.replay.shared.CompareAndSwap(nil, &c.tape) && p.replay.loaded {
		c.tape.loaded.Add(1)
	}
	// A cached plan is there to be replayed: its first execution records.
	p.replay.state.CompareAndSwap(tapeCold, tapeWarm)
	if el, ok := c.entries[key]; ok { // racing insert of the same key
		c.lru.MoveToFront(el)
		el.Value = p
		return
	}
	c.entries[key] = c.lru.PushFront(p)
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*Plan).Key)
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the cache accounting.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Size = c.lru.Len()
	st.TapeRecords = c.tape.records.Load()
	st.TapeReplays = c.tape.replays.Load()
	st.TapeDeclined = c.tape.declined.Load()
	st.TapeLoaded = c.tape.loaded.Load()
	return st
}

// Capacity returns the maximum resident plan count.
func (c *Cache) Capacity() int { return c.capacity }
