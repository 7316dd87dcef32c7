package planstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/plan"
)

// Store layout inside its directory:
//
//	plans/<sha256 hex>.plan   encoded plans, named by content address
//	quarantine/               blobs that failed integrity checks on load
//	index.tsv                 manifest: "<hash>\t<key string>" per line
//
// The blobs are the source of truth: Open rebuilds the in-memory index by
// reading each blob's key prefix (DecodeKey), so a lost or stale manifest
// never loses plans. The manifest is rewritten after every mutation — it
// gives humans and tooling a greppable inventory and records the pinned
// key encoding the store is addressed by.
const (
	plansDir      = "plans"
	quarantineDir = "quarantine"
	manifestName  = "index.tsv"
	blobExt       = ".plan"
)

// Store is a content-addressed collection of encoded plans in a
// directory. All methods are safe for concurrent use; writes are atomic
// (temp file + rename), loads verify the content hash before trusting a
// byte, and corrupt entries are quarantined rather than served or
// silently deleted.
type Store struct {
	dir string

	mu    sync.Mutex
	index map[plan.Key]string // key -> content hash (blob basename)
	stats Stats
}

// Stats is the store's operation accounting, for dashboards and the
// serving daemon's /metrics endpoint. Loads counts successful decodes,
// Misses the lookups for keys the store does not hold, LoadErrors the
// entries that existed but could not be used (each of those also bumps
// Quarantined when the blob was moved aside), Saves the persisted writes
// and SaveErrors the writes that failed. Plans is the indexed plan count
// at snapshot time.
type Stats struct {
	Loads       int64
	Misses      int64
	LoadErrors  int64
	Saves       int64
	SaveErrors  int64
	Quarantined int64
	Plans       int
	// LoadLatency and SaveLatency accumulate wall time across every Load
	// (including misses and failures) and Save/Put respectively — the
	// totals behind /metrics' wse_plan_store_{load,save}_seconds_total,
	// which divided by the operation counters give mean store latency.
	LoadLatency time.Duration
	SaveLatency time.Duration
}

// Stats snapshots the store's operation accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Plans = len(s.index)
	return st
}

func (s *Store) note(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Open opens (creating if needed) a plan store rooted at dir and rebuilds
// its index from the blobs on disk. Blobs that cannot be indexed —
// unreadable, foreign format, future version — are quarantined.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, plansDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("planstore: %w", err)
		}
	}
	s := &Store{dir: dir, index: make(map[plan.Key]string)}
	entries, err := os.ReadDir(filepath.Join(dir, plansDir))
	if err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, blobExt) {
			continue
		}
		path := filepath.Join(dir, plansDir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue // unreadable now; Load will quarantine it if asked for
		}
		key, err := DecodeKey(data)
		if err != nil {
			s.quarantine(name)
			continue
		}
		s.index[key] = strings.TrimSuffix(name, blobExt)
	}
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed plans.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Keys lists the keys of every stored plan, in no particular order.
func (s *Store) Keys() []plan.Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]plan.Key, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	return out
}

// HashOf returns the content address the store holds for key.
func (s *Store) HashOf(key plan.Key) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.index[key]
	return h, ok
}

// Save encodes and persists a plan, overwriting any entry under the same
// key. The blob write is atomic: the encoding goes to a temp file in the
// store and is renamed onto its content address, so a crash mid-write
// leaves either the old state or the new, never a torn blob.
func (s *Store) Save(p *plan.Plan) error {
	_, err := s.Put(p)
	return err
}

// Put is Save returning the plan's content address. The encoding and the
// temp file are made outside the store's lock, which is held only to rename
// the file onto its address and to update the index and the manifest: a
// write-back in flight does not stall the index lookup of a concurrent Load.
func (s *Store) Put(p *plan.Plan) (string, error) {
	start := time.Now()
	defer func() {
		s.note(func(st *Stats) { st.SaveLatency += time.Since(start) })
	}()
	hash, err := s.put(p)
	if err != nil {
		s.note(func(st *Stats) { st.SaveErrors++ })
	}
	return hash, err
}

func (s *Store) put(p *plan.Plan) (string, error) {
	if err := faults.Inject("planstore.save"); err != nil {
		return "", err
	}
	data, hash, err := Encode(p)
	if err != nil {
		return "", err
	}
	if old, ok := s.HashOf(p.Key); ok && old == hash {
		// Identical content already indexed — but only skip the write if
		// the blob really is on disk, so a Save after an out-of-band
		// deletion restores durability instead of reporting stale success.
		if _, err := os.Stat(s.blobPath(hash)); err == nil {
			return hash, nil
		}
	}
	tmp, err := s.writeTemp(data)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp, s.blobPath(hash)); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("planstore: %w", err)
	}
	s.stats.Saves++
	old, existed := s.index[p.Key]
	s.index[p.Key] = hash
	if existed && old != hash {
		// The key moved to new content (the plan recorded its replay tape,
		// or the compiler changed between releases); drop the orphaned old
		// blob.
		os.Remove(s.blobPath(old))
	}
	return hash, s.writeManifest()
}

// Load reads, verifies and decodes the plan stored under key. A missing
// entry returns ok=false with no error. An entry that fails integrity
// verification or decoding is moved to the quarantine directory, removed
// from the index, and reported as an error — the caller falls back to
// compiling, and the operator can inspect the quarantined blob.
func (s *Store) Load(key plan.Key) (*plan.Plan, bool, error) {
	start := time.Now()
	defer func() {
		s.note(func(st *Stats) { st.LoadLatency += time.Since(start) })
	}()
	if err := faults.Inject("planstore.load"); err != nil {
		s.note(func(st *Stats) { st.LoadErrors++ })
		return nil, false, err
	}
	data, hash, ok, err := s.readBlob(key)
	if !ok {
		return nil, false, err
	}
	p, gotHash, err := Decode(data)
	if err != nil {
		s.quarantineEntry(key, hash)
		return nil, false, fmt.Errorf("planstore: %s quarantined: %w", hash+blobExt, err)
	}
	if gotHash != hash {
		// The payload verifies against its own header but lives under the
		// wrong address — a swapped or misfiled blob.
		s.quarantineEntry(key, hash)
		return nil, false, fmt.Errorf("planstore: blob %s decodes to address %s: quarantined", hash, gotHash)
	}
	if p.Key != key {
		s.quarantineEntry(key, hash)
		return nil, false, fmt.Errorf("planstore: blob %s holds key %v, indexed under %v: quarantined", hash, p.Key, key)
	}
	s.note(func(st *Stats) { st.Loads++ })
	return p, true, nil
}

// readBlob reads the blob key is indexed under, outside the store's lock.
// ok=false without an error is a miss: no entry, or an entry whose blob is
// gone (manual deletion; the entry is dropped). A Put that moves the key to
// new content — a plan saved again with its replay tape — removes the old
// blob, possibly between the index lookup here and the read; the key is then
// read again under its new address instead of being reported missing.
func (s *Store) readBlob(key plan.Key) (data []byte, hash string, ok bool, err error) {
	for {
		s.mu.Lock()
		hash, ok = s.index[key]
		if !ok {
			s.stats.Misses++
		}
		s.mu.Unlock()
		if !ok {
			return nil, "", false, nil
		}
		data, err = os.ReadFile(s.blobPath(hash))
		if err == nil {
			return data, hash, true, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			s.note(func(st *Stats) { st.LoadErrors++ })
			return nil, "", false, fmt.Errorf("planstore: %w", err)
		}
		if s.drop(key, hash) {
			s.note(func(st *Stats) { st.Misses++ })
			return nil, "", false, nil
		}
	}
}

// Verify loads and checks every indexed plan, quarantining the ones that
// fail. After the hash sweep's own checks (Load) it re-earns the trust a
// stored replay tape is served on: a plan that carries one is simulated
// once and the tape walk must agree with the simulator bit for bit
// (Plan.CheckTape). It returns the number of healthy plans and the content
// addresses that were quarantined.
func (s *Store) Verify() (ok int, quarantined []string, err error) {
	var errs []error
	for _, key := range s.Keys() {
		hash, present := s.HashOf(key)
		if !present {
			continue
		}
		p, loaded, lerr := s.Load(key)
		if lerr == nil && loaded {
			if lerr = p.CheckTape(); lerr != nil {
				s.quarantineEntry(key, hash)
				lerr = fmt.Errorf("planstore: %s quarantined: %w", hash+blobExt, lerr)
			}
		}
		if lerr != nil {
			quarantined = append(quarantined, hash)
			errs = append(errs, lerr)
		} else if loaded {
			ok++
		}
	}
	return ok, quarantined, errors.Join(errs...)
}

func (s *Store) blobPath(hash string) string {
	return filepath.Join(s.dir, plansDir, hash+blobExt)
}

// writeTemp writes data to a fresh temp file beside the blobs, for the
// caller to rename onto a content address, and returns its path.
func (s *Store) writeTemp(data []byte) (string, error) {
	if err := faults.Inject("planstore.write"); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, plansDir), ".tmp-*")
	if err != nil {
		return "", fmt.Errorf("planstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("planstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("planstore: %w", err)
	}
	return tmp.Name(), nil
}

// drop removes key's index entry if it still names hash and that blob is
// gone, and reports whether it did. Put renames and removes blobs under the
// lock, so a false here means the key has a readable blob again.
func (s *Store) drop(key plan.Key, hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now, ok := s.index[key]
	if !ok {
		return true
	}
	if now != hash {
		return false
	}
	if _, err := os.Stat(s.blobPath(hash)); err == nil {
		return false
	}
	delete(s.index, key)
	s.writeManifest()
	return true
}

// quarantineEntry moves a failing blob into quarantine/ and drops its
// index entry.
func (s *Store) quarantineEntry(key plan.Key, hash string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.LoadErrors++
	s.quarantine(hash + blobExt)
	if s.index[key] == hash {
		delete(s.index, key)
		s.writeManifest()
	}
}

// quarantine moves plans/<name> to quarantine/<name>. The caller holds
// s.mu (or, during Open, has exclusive access).
func (s *Store) quarantine(name string) {
	s.stats.Quarantined++
	os.Rename(filepath.Join(s.dir, plansDir, name), filepath.Join(s.dir, quarantineDir, name))
}

// writeManifest rewrites index.tsv atomically, sorted by key string so
// the manifest is diff-stable. The caller holds s.mu (or, during Open,
// has exclusive access).
func (s *Store) writeManifest() error {
	lines := make([]string, 0, len(s.index))
	for k, h := range s.index {
		lines = append(lines, h+"\t"+k.String()+"\n")
	}
	sort.Slice(lines, func(i, j int) bool {
		return lines[i][strings.IndexByte(lines[i], '\t'):] < lines[j][strings.IndexByte(lines[j], '\t'):]
	})
	tmp, err := os.CreateTemp(s.dir, ".tmp-manifest-*")
	if err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	for _, l := range lines {
		if _, err := tmp.WriteString(l); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("planstore: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("planstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, manifestName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("planstore: %w", err)
	}
	return nil
}
