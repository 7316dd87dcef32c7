package plan

import (
	"container/list"
	"context"
	"log"
	"sync"
)

// DefaultCacheCapacity bounds a Cache when the caller passes no capacity.
const DefaultCacheCapacity = 128

// CacheStats reports a cache's accounting: Hits counts lookups served
// from a resident or in-flight plan, Misses the lookups that went to the
// resolver chain, Evictions the plans dropped at capacity, and Size the
// resident plan count. The store fields are a view over the attached
// chain's per-stage stats (Resolver.Stats), not counters of the cache's own,
// so they read the same under SetStore, under a hand-built chain and on
// /metrics: StoreHits is the misses a store stage satisfied by decoding a
// stored plan instead of compiling, StoreErrors the store operations that
// failed — loads, and write-back saves — none of which fails a lookup; both
// start over when a chain is attached. The Tape counters follow the replay
// tapes of the plans the cache holds or ever held (tape.go): TapeRecords
// counts the plans that recorded one, TapeReplays the reports produced by
// walking a tape instead of running the simulator, TapeDeclined the plans
// found untapeable (a Tracer attached, or a program over the tape cap),
// TapeLoaded the plans that arrived with a tape in their stored frame and so
// never ran the simulator here at all.
type CacheStats struct {
	Hits        int64
	Misses      int64
	Evictions   int64
	StoreHits   int64
	StoreErrors int64
	// LastStoreError is the message of the most recent failed store
	// operation under the attached chain ("" while none has failed). Store
	// failures are absorbed — lookups fall back to the compiler — so
	// without this field a dying store is visible only as a bare counter.
	LastStoreError string
	Size           int
	TapeRecords    int64
	TapeReplays    int64
	TapeDeclined   int64
	TapeLoaded     int64
}

// Cache is a content-keyed LRU of compiled plans. Lookups for the same
// key that race an in-flight miss coalesce onto it (and count as hits)
// instead of resolving twice. A miss is one call of the attached resolver
// chain (stage.go): the bare compiler until SetStore or SetResolver attach
// something longer, so a serving process over a store transparently
// accumulates and reuses a durable plan warehouse. A plan the cache holds
// records its tape on its first execution (tape.go), and the chain's
// write-backs wait for it (writeback.go).
type Cache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[Key]*list.Element
	lru       list.List // front = most recently used; values are *Plan
	compiling map[Key]*inflight
	resolver  Resolver
	stats     CacheStats   // Hits, Misses, Evictions, LastStoreError
	tape      tapeCounters // of every plan inserted here first
	// storeErrLogged dedupes the store-failure log line: one warning per
	// attached chain, not one per degraded request.
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
		resolver:  Compiler(),
	}
}

// SetResolver attaches r as the cache's miss path (nil: the bare compiler
// again). The cache owns the chain from here on: its write-back stages leave
// the save of a plan whose tape is still open to the execution that settles
// it (writeback.go), every store failure it absorbs is logged once and kept
// as LastStoreError, and the store fields of Stats read its stages. A chain
// is owned by one cache at a time. Call before taking traffic, or
// concurrently — attachment is atomic with respect to lookups.
func (c *Cache) SetResolver(r Resolver) {
	if r == nil {
		r = Compiler()
	}
	attach(c.resolverHandle(), nil)
	attach(r, &attachment{storeErr: c.noteStoreError})
	c.mu.Lock()
	c.resolver = r
	c.stats.LastStoreError = ""
	c.storeErrLogged = false
	c.mu.Unlock()
}

// Get returns the plan for req, resolving it through the attached chain on
// a miss.
func (c *Cache) Get(req Request) (*Plan, error) {
	return c.GetCtx(context.Background(), req)
}

// GetCtx is Get with the caller's context threaded into the miss path,
// where a resolver chain's remote stages honour its deadline. Lookups
// that coalesce onto an in-flight miss share the first caller's fill
// (and its context), exactly as they share its compile. Nothing says the
// caller executes the plan, so what a miss left pending for a store is
// saved before GetCtx returns.
func (c *Cache) GetCtx(ctx context.Context, req Request) (*Plan, error) {
	p, missed, err := c.lookup(ctx, req)
	if missed && err == nil {
		p.settle(ctx)
	}
	return p, err
}

// lookup is a counted lookup; the bool reports that it was the miss that
// resolved the plan. A caller that executes the plan next leaves pending
// saves to that execution.
func (c *Cache) lookup(ctx context.Context, req Request) (*Plan, bool, error) {
	key := KeyOf(req)
	return c.acquire(key, true, c.fill(ctx, c.resolverHandle(), key, req))
}

// fill is the miss path for key: one Resolve of r. A chain sees the key
// alone, so the request is validated here and its Tracer — a debug
// attachment no key carries — rides along onto the plan.
func (c *Cache) fill(ctx context.Context, r Resolver, key Key, req Request) func() (*Plan, error) {
	return func() (*Plan, error) {
		if err := req.Validate(); err != nil {
			return nil, err
		}
		p, err := r.Resolve(ctx, key)
		if err == nil && req.Opt.Tracer != nil {
			p.Opt.Tracer = req.Opt.Tracer
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

func (c *Cache) resolverHandle() Resolver {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resolver
}

// Lookup returns the resident plan for key, refreshing its recency,
// without counting a hit or miss and without triggering any fill.
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

// noteStoreError is where the attached chain reports a store failure it
// absorbed.
func (c *Cache) noteStoreError(err error) {
	c.mu.Lock()
	c.stats.LastStoreError = err.Error()
	logIt := !c.storeErrLogged
	c.storeErrLogged = true
	c.mu.Unlock()
	if logIt {
		log.Printf("plan: store degraded (falling back to compile; logged once per attached chain): %v", err)
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
	st, r := c.stats, c.resolver
	st.Size = c.lru.Len()
	c.mu.Unlock()
	st.StoreHits, st.StoreErrors = storeView(r.Stats())
	st.TapeRecords = c.tape.records.Load()
	st.TapeReplays = c.tape.replays.Load()
	st.TapeDeclined = c.tape.declined.Load()
	st.TapeLoaded = c.tape.loaded.Load()
	return st
}
