package plan

import (
	"container/list"
	"context"
	"log"
	"sync"
	"sync/atomic"
)

// DefaultCacheCapacity bounds a Cache when the caller passes no capacity.
const DefaultCacheCapacity = 128

// CacheStats reports a cache's accounting: Hits counts lookups served
// from a resident or in-flight plan, Misses the lookups that went to the
// miss path (miss.go), Evictions the plans dropped at capacity, and Size the
// resident plan count. Miss is the miss path's ledger, and the store fields
// are read from it, so they start over when a store is attached: StoreHits
// is the misses the store satisfied by decoding a stored plan instead of
// compiling, StoreErrors the store operations that failed — loads and saves
// — none of which fails a lookup, and LastStoreError the newest of those
// failures ("" while none). The Tape counters follow the replay tapes of the
// plans the cache holds or ever held (tape.go), each plan counted once, when
// the cache takes it in: TapeRecords the plans the miss recorded a tape for,
// TapeLoaded the plans that arrived with a tape in their stored frame and so
// never ran the simulator here at all, TapeDeclined the plans that replay no
// tape (a Tracer attached, a program over the tape cap or one the engine
// fails); TapeReplays counts the reports produced by walking a tape instead
// of running the simulator.
type CacheStats struct {
	Hits           int64
	Misses         int64
	Evictions      int64
	StoreHits      int64
	StoreErrors    int64
	LastStoreError string
	Size           int
	TapeRecords    int64
	TapeReplays    int64
	TapeDeclined   int64
	TapeLoaded     int64
	Miss           MissStats
}

// Cache is a content-keyed LRU of compiled plans. Lookups for the same
// key that race an in-flight miss coalesce onto it (and count as hits)
// instead of resolving twice. A miss is one call of the miss path
// (miss.go): compile only until SetStore attaches a store, so a serving
// process over a store transparently accumulates and reuses a durable plan
// warehouse. The miss hands over plans already taped (tape.go).
type Cache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[Key]*list.Element
	lru       list.List // front = most recently used; values are *Plan
	compiling map[Key]*inflight
	miss      atomic.Pointer[missPath]
	stats     CacheStats   // Hits, Misses, Evictions
	tape      tapeCounters // of every plan inserted here first
	// storeErrLogged dedupes the store-failure log line: one warning per
	// attached store, not one per degraded request.
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
	c := &Cache{
		capacity:  capacity,
		entries:   make(map[Key]*list.Element),
		compiling: make(map[Key]*inflight),
	}
	c.SetStore(nil)
	return c
}

// Get returns the plan for req, making it on a miss.
func (c *Cache) Get(req Request) (*Plan, error) {
	return c.GetCtx(context.Background(), req)
}

// GetCtx is Get with the caller's context threaded into the miss, where it
// bounds the recording run. Lookups that coalesce onto an in-flight miss
// share the first caller's fill (and its context), exactly as they share
// its compile.
func (c *Cache) GetCtx(ctx context.Context, req Request) (*Plan, error) {
	p, _, _, err := c.fill(ctx, c.miss.Load(), req, true)
	return p, err
}

// fill returns the plan for req, made by one resolve of m on a miss; count
// selects whether the lookup takes part in the hit/miss accounting. It
// reports whether the miss ran here, and whether its plan came from the
// store. The miss sees the key alone, so the request is validated here and
// its Tracer — a debug attachment no key carries — rides along onto the
// plan.
func (c *Cache) fill(ctx context.Context, m *missPath, req Request, count bool) (p *Plan, fetched, loaded bool, err error) {
	key := KeyOf(req)
	p, fetched, err = c.acquire(key, count, func() (*Plan, error) {
		if err := req.Validate(); err != nil {
			return nil, err
		}
		p, fromStore, err := m.resolve(ctx, key)
		if err == nil && req.Opt.Tracer != nil {
			p.Opt.Tracer = req.Opt.Tracer
		}
		loaded = fromStore
		return p, err
	})
	return p, fetched, loaded, err
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

// noteStoreError is where the miss reports a store failure it absorbed.
func (c *Cache) noteStoreError(err error) {
	c.mu.Lock()
	logIt := !c.storeErrLogged
	c.storeErrLogged = true
	c.mu.Unlock()
	if logIt {
		log.Printf("plan: store degraded (falling back to compile; logged once per attached store): %v", err)
	}
}

// insert adds a plan under key, evicting from the cold end at capacity.
// The caller holds c.mu.
func (c *Cache) insert(key Key, p *Plan) {
	c.tape.count(p)
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
	st := c.stats
	st.Size = c.lru.Len()
	c.mu.Unlock()
	st.Miss = c.miss.Load().stats()
	st.StoreHits = st.Miss.Store.Hits
	st.StoreErrors = st.Miss.Store.Errors + st.Miss.SaveErrors
	st.LastStoreError = st.Miss.LastStoreError
	st.TapeRecords = c.tape.records.Load()
	st.TapeReplays = c.tape.replays.Load()
	st.TapeDeclined = c.tape.declined.Load()
	st.TapeLoaded = c.tape.loaded.Load()
	return st
}
