package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"vdtn/internal/scenario"
	"vdtn/internal/sim"
	"vdtn/internal/wireless"
)

// CacheEventKind classifies one contact-cache lookup outcome.
type CacheEventKind int

const (
	// CacheHit: the trace was already memoized in this cache's memory.
	CacheHit CacheEventKind = iota
	// CacheHitDisk: the trace was loaded (or mmap-opened) from the
	// persisted store; Elapsed is the load time.
	CacheHitDisk
	// CacheRecorded: a miss — the recording pass actually ran; Elapsed is
	// its cost.
	CacheRecorded
)

// String names the event kind for progress output.
func (k CacheEventKind) String() string {
	switch k {
	case CacheHit:
		return "hit"
	case CacheHitDisk:
		return "hit(disk)"
	case CacheRecorded:
		return "recorded"
	default:
		return fmt.Sprintf("CacheEventKind(%d)", int(k))
	}
}

// CacheEvent is one contact-cache lookup outcome, delivered to the
// observer a Runner threads through the sweep (Observer.CacheEvent).
type CacheEvent struct {
	Kind        CacheEventKind
	Fingerprint string
	// Elapsed is the recording or disk-load cost; zero for memory hits.
	Elapsed time.Duration
}

// ContactCache memoizes recorded contact traces by scenario fingerprint,
// so a sweep's many (series, x) cells that share one (scenario, seed)
// mobility process simulate it exactly once and replay it everywhere else.
// Replayed cells are bit-identical to live cells (see sim.RecordContacts),
// so a cached experiment table equals the uncached one.
//
// The cache is safe for the runner's worker pool: concurrent requests for
// the same key block behind a single recording pass; requests for distinct
// keys record in parallel (Prewarm exploits this to front-load all of a
// sweep's recording passes). With Dir set, recordings are additionally
// persisted on disk in the binary codec in a sharded layout (see
// traceStore: 2-level fan-out directories fronted by an index file) and
// reloaded on later runs. A damaged file (truncation at any byte, bit
// rot, torn copy) is detected, reported through Warn, and re-recorded —
// never silently replayed.
//
// With Mmap also set, Source serves persisted traces as read-only
// memory-mapped wireless.RecordingView values instead of decoding them:
// the transition stream stays in the kernel page cache — one physical
// copy shared by every concurrent sweep process — and each replaying cell
// pays only a cursor, no per-cell trace allocation.
type ContactCache struct {
	// Dir, when non-empty, is the on-disk persistence directory. It is
	// created on first write.
	Dir string

	// Mmap, with Dir set, makes Source return zero-copy mmap-backed views
	// of the persisted traces instead of decoded recordings. Recording
	// still returns the materialized form for callers that need it.
	Mmap bool

	// MaxBytes, when positive, bounds the persisted store's total size:
	// after each recording is persisted, least-recently-used traces are
	// evicted until the shards fit the budget (see GC). Zero means
	// unbounded.
	MaxBytes int64

	// Warn, when non-nil, receives one message per non-fatal cache anomaly:
	// an unreadable, corrupt, or scenario-mismatched persisted trace. Each
	// distinct (cause, fingerprint) pair is reported once per cache
	// instance — the same trace probed by both the view and the slurp path
	// warns once, but distinct damaged traces each get their own report.
	// Nil discards them.
	Warn func(msg string)

	mu      sync.Mutex
	entries map[string]*cacheEntry
	disk    *traceStore
	records uint64 // recording passes actually executed (not served from memory/disk)
	warned  map[string]bool
}

type cacheEntry struct {
	once sync.Once
	rec  *wireless.Recording
	err  error

	// The mmap view is materialized separately from the slurped recording:
	// Source-only consumers never pay for the decoded slice, and
	// Recording-only consumers never map the file.
	viewOnce sync.Once
	view     *wireless.RecordingView
}

// entry returns (creating if needed) the memoization slot for key.
func (cc *ContactCache) entry(key string) *cacheEntry {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.entries == nil {
		cc.entries = make(map[string]*cacheEntry)
	}
	e := cc.entries[key]
	if e == nil {
		e = &cacheEntry{}
		cc.entries[key] = e
	}
	return e
}

// store returns the sharded disk store (nil when Dir is unset).
func (cc *ContactCache) store() *traceStore {
	if cc.Dir == "" {
		return nil
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.disk == nil {
		cc.disk = newTraceStore(cc.Dir)
		// Index repairs (a crash left index.json disagreeing with the
		// shards) surface through the cache's Warn hook, deduped per
		// fingerprint like every other anomaly.
		cc.disk.repaired = func(key, cause string) {
			cc.warnf("index:"+key, "contact cache: index.json %s for %s; repaired from the shard", cause, key)
		}
	}
	return cc.disk
}

// Recording returns the contact trace for cfg's mobility process,
// recording it on first use. The returned recording is shared and must be
// treated as immutable.
func (cc *ContactCache) Recording(cfg sim.Config) (*wireless.Recording, error) {
	return cc.recordingWith(context.Background(), cfg, nil)
}

// RecordingContext is Recording under a context: a cancelled ctx
// interrupts an in-flight recording pass promptly (between two events of
// its mobility simulation) and returns ctx.Err(). A cancelled pass is not
// memoized — a later call with a live context records the key again.
func (cc *ContactCache) RecordingContext(ctx context.Context, cfg sim.Config) (*wireless.Recording, error) {
	return cc.recordingWith(ctx, cfg, nil)
}

// recordingWith is Recording with a cache-event hook: note (when non-nil)
// learns whether this lookup hit memory, loaded from disk, or ran the
// recording pass. Only the single-flight winner observes the disk-load or
// recording event; callers that waited behind it (or arrived later)
// observe a memory hit.
func (cc *ContactCache) recordingWith(ctx context.Context, cfg sim.Config, note func(CacheEvent)) (*wireless.Recording, error) {
	if cfg.Plan != nil {
		return nil, fmt.Errorf("experiments: contact cache cannot serve a contact-plan scenario")
	}
	key := scenario.ContactFingerprint(cfg)
	e := cc.entry(key)
	ran := false
	e.once.Do(func() {
		ran = true
		// The recover runs inside the once: a panic escaping here would
		// mark the once done with (nil, nil), handing every later caller a
		// nil trace with no error.
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("experiments: recording %s panicked: %v", key, r)
			}
		}()
		e.rec, e.err = cc.load(ctx, key, cfg, note)
	})
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		// Cancellation is a property of this call's context, not of the
		// key: drop the poisoned memoization so a later run (a resumed
		// sweep in the same process) records the trace instead of
		// replaying the stale error.
		cc.mu.Lock()
		if cc.entries[key] == e {
			delete(cc.entries, key)
		}
		cc.mu.Unlock()
	}
	if !ran && note != nil && e.err == nil {
		note(CacheEvent{Kind: CacheHit, Fingerprint: key})
	}
	return e.rec, e.err
}

// Source returns a replay source for cfg's contact process: with Dir and
// Mmap set, a shared read-only mmap view of the persisted trace (recording
// and persisting it first if absent); otherwise the in-memory recording.
// Every anomaly on the view path — damaged file, scenario mismatch —
// falls back to the slurp path after reporting through Warn, so Source
// never fails where Recording would succeed.
func (cc *ContactCache) Source(cfg sim.Config) (wireless.ReplaySource, error) {
	return cc.sourceWith(context.Background(), cfg, nil)
}

// sourceWith is Source with a context (cancellation interrupts a
// recording pass, as in RecordingContext) and the cache-event hook of
// recordingWith.
func (cc *ContactCache) sourceWith(ctx context.Context, cfg sim.Config, note func(CacheEvent)) (wireless.ReplaySource, error) {
	if cfg.Plan != nil {
		return nil, fmt.Errorf("experiments: contact cache cannot serve a contact-plan scenario")
	}
	if cc.Dir == "" || !cc.Mmap {
		return cc.recordingWith(ctx, cfg, note)
	}
	key := scenario.ContactFingerprint(cfg)
	e := cc.entry(key)
	ran := false
	e.viewOnce.Do(func() {
		ran = true
		// The budget check runs once per view materialization (the
		// recording path GCs again on persist), never on memoized hits —
		// a GC pass walks the whole store.
		defer cc.gcAfterUse()
		start := time.Now()
		if v := cc.openView(key, cfg); v != nil {
			e.view = v
			if note != nil {
				note(CacheEvent{Kind: CacheHitDisk, Fingerprint: key, Elapsed: time.Since(start)})
			}
			return
		}
		// No usable persisted copy: record (and persist) through the slurp
		// path, then map the freshly written shard. A second openView
		// failure here means persistence itself failed (full disk,
		// read-only dir) and the in-memory fallback below serves the key.
		if _, err := cc.recordingWith(ctx, cfg, note); err != nil {
			return
		}
		e.view = cc.openView(key, cfg)
	})
	if e.view != nil {
		if !ran && note != nil {
			note(CacheEvent{Kind: CacheHit, Fingerprint: key})
		}
		return e.view, nil
	}
	if ran {
		// This call already delivered its events inside the viewOnce; the
		// in-memory fallback must not double-report the key as a hit.
		note = nil
	}
	return cc.recordingWith(ctx, cfg, note)
}

// openView maps and verifies the persisted trace for key. nil means no
// usable copy (absent, damaged, or recorded for a different scenario);
// damage and mismatch are surfaced via Warn, and the mapping is always
// released on the rejection paths — a failed validation must not leak an
// mmap for the life of the sweep.
func (cc *ContactCache) openView(key string, cfg sim.Config) *wireless.RecordingView {
	st := cc.store()
	path := st.shardPath(key)
	v, err := wireless.OpenRecordingView(path)
	if err != nil {
		if !os.IsNotExist(err) {
			cc.warnf("corrupt:"+key, "contact cache: rejecting %s: %v; re-recording", path, err)
		}
		return nil
	}
	if err := sim.ReplaySourceCompatible(contactCanonical(cfg), v); err != nil {
		v.Close()
		cc.warnf("mismatch:"+key, "contact cache: %s does not match the scenario: %v; re-recording", path, err)
		return nil
	}
	fi, statErr := os.Stat(path)
	if statErr == nil {
		st.touch(key, fi.Size())
	}
	st.noteServed(key)
	return v
}

// contactCanonical keeps exactly the fields the contact process can see —
// the ones ContactFingerprint hashes — and resets everything else
// (traffic, routing, buffers, tracing) to the defaults. The recording
// pass therefore neither depends on nor validates a cell's non-contact
// configuration: one cell with, say, an invalid TTL must not poison the
// trace its whole (scenario, seed) group shares.
func contactCanonical(cfg sim.Config) sim.Config {
	c := sim.DefaultConfig()
	c.Seed = cfg.Seed
	c.Duration = cfg.Duration
	c.Map = cfg.Map
	c.Vehicles = cfg.Vehicles
	c.Relays = cfg.Relays
	c.SpeedLo, c.SpeedHi = cfg.SpeedLo, cfg.SpeedHi
	c.PauseLo, c.PauseHi = cfg.PauseLo, cfg.PauseHi
	c.Range = cfg.Range
	c.ScanInterval = cfg.ScanInterval
	return c
}

// Prewarm runs the recording passes for every distinct contact process in
// cfgs over its own worker pool, so a sweep's cells find their traces
// already in memory instead of serializing behind first-touch
// single-flight. Configurations the cache cannot serve (contact-plan or
// non-live contact sources) are skipped. workers <= 0 defaults to
// GOMAXPROCS. The returned error joins every failed recording; a failure
// is also memoized per key, so later Recording calls for that key report
// it again with their own context.
func (cc *ContactCache) Prewarm(cfgs []sim.Config, workers int) error {
	return cc.prewarm(context.Background(), cfgs, workers, nil, nil)
}

// PrewarmContext is Prewarm under a context: cancellation interrupts the
// in-flight recording passes promptly — between two events of their
// mobility simulations, not minutes later at the end of a pass — skips
// the rest, and returns the joined errors (each wrapping ctx.Err()).
// Cancelled passes are not memoized, so a later run records them cleanly.
func (cc *ContactCache) PrewarmContext(ctx context.Context, cfgs []sim.Config, workers int) error {
	return cc.prewarm(ctx, cfgs, workers, func() bool { return ctx.Err() != nil }, nil)
}

// prewarm is Prewarm with a context, a stop hook — when stop becomes
// true, remaining un-started recordings are skipped (the sweep runner
// stops warming a cache whose sweep has already failed or been
// cancelled) — and the cache-event hook of recordingWith.
func (cc *ContactCache) prewarm(ctx context.Context, cfgs []sim.Config, workers int, stop func() bool, note func(CacheEvent)) error {
	seen := make(map[string]bool)
	var distinct []sim.Config
	for _, cfg := range cfgs {
		if cfg.Plan != nil || cfg.ContactSource != sim.ContactLive {
			continue
		}
		key := scenario.ContactFingerprint(cfg)
		if seen[key] {
			continue
		}
		seen[key] = true
		distinct = append(distinct, cfg)
	}
	if len(distinct) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(distinct) {
		workers = len(distinct)
	}
	errs := make([]error, len(distinct))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if stop != nil && stop() {
					continue
				}
				if _, err := cc.recordingWith(ctx, distinct[i], note); err != nil {
					errs[i] = fmt.Errorf("experiments: prewarm %s: %w",
						scenario.ContactFingerprint(distinct[i]), err)
				}
			}
		}()
	}
	for i := range distinct {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// load fills one cache entry: from disk if persisted, else by running the
// contacts-only recording pass (and persisting it when Dir is set).
func (cc *ContactCache) load(ctx context.Context, key string, cfg sim.Config, note func(CacheEvent)) (*wireless.Recording, error) {
	st := cc.store()
	start := time.Now()
	if st != nil {
		if rec := cc.fromDisk(key, cfg, st); rec != nil {
			if note != nil {
				note(CacheEvent{Kind: CacheHitDisk, Fingerprint: key, Elapsed: time.Since(start)})
			}
			return rec, nil
		}
	}
	rec, err := sim.RecordContactsContext(ctx, contactCanonical(cfg))
	if err != nil {
		return nil, err
	}
	if note != nil {
		note(CacheEvent{Kind: CacheRecorded, Fingerprint: key, Elapsed: time.Since(start)})
	}
	cc.mu.Lock()
	cc.records++
	cc.mu.Unlock()
	if st != nil {
		// Persistence is an optimization: a full disk must not fail a run
		// that already holds a valid recording, so errors are swallowed.
		st.put(key, wireless.EncodeBinary(rec))
		cc.gcAfterUse()
	}
	return rec, nil
}

// fromDisk loads key's persisted trace from its shard. nil means a miss
// — absent, unreadable, damaged, or recorded for a different scenario —
// and every cause except plain absence is surfaced via Warn.
func (cc *ContactCache) fromDisk(key string, cfg sim.Config, st *traceStore) *wireless.Recording {
	path := st.shardPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			cc.warnf("io:"+key, "contact cache: reading %s: %v; re-recording", path, err)
		}
		return nil
	}
	rec, err := wireless.DecodeRecording(data)
	if err != nil {
		cc.warnf("corrupt:"+key, "contact cache: rejecting %s: %v; re-recording", path, err)
		return nil
	}
	if err := sim.ReplayCompatible(cfg, rec); err != nil {
		cc.warnf("mismatch:"+key, "contact cache: %s does not match the scenario: %v; re-recording", path, err)
		return nil
	}
	st.touch(key, int64(len(data)))
	// If the index had lost this trace (crash between shard rename and
	// index flush), this serve is the repair — count it through Warn.
	st.noteServed(key)
	return rec
}

// warnf formats and delivers one warning through the hook, at most once
// per (cause, fingerprint) dedup key for the life of the cache.
func (cc *ContactCache) warnf(dedup, format string, args ...any) {
	cc.mu.Lock()
	warn := cc.Warn
	if warn == nil || cc.warned[dedup] {
		cc.mu.Unlock()
		return
	}
	if cc.warned == nil {
		cc.warned = make(map[string]bool)
	}
	cc.warned[dedup] = true
	cc.mu.Unlock()
	warn(fmt.Sprintf(format, args...))
}

// gcAfterUse applies the MaxBytes budget after a store write or view open.
// Best-effort: a GC failure never fails the lookup that triggered it.
func (cc *ContactCache) gcAfterUse() {
	if cc.MaxBytes <= 0 {
		return
	}
	_, _, _ = cc.GC()
}

// GC evicts least-recently-used persisted traces until the store fits
// MaxBytes (no-op when MaxBytes is zero or Dir is unset). Fingerprints
// currently held in memory by this cache are never evicted — they are the
// sweep's working set. It returns how many trace files were removed and
// how many bytes they freed.
func (cc *ContactCache) GC() (removed int, freed int64, err error) {
	st := cc.store()
	if st == nil || cc.MaxBytes <= 0 {
		return 0, 0, nil
	}
	cc.mu.Lock()
	keep := make(map[string]bool, len(cc.entries))
	for key := range cc.entries {
		keep[key] = true
	}
	cc.mu.Unlock()
	return st.gc(cc.MaxBytes, keep)
}

// Close releases every mmap-backed view the cache opened and flushes the
// store index. The cache must not serve replays after Close (live cursors
// would read unmapped pages).
func (cc *ContactCache) Close() error {
	cc.mu.Lock()
	var views []*wireless.RecordingView
	for _, e := range cc.entries {
		if e.view != nil {
			views = append(views, e.view)
		}
	}
	disk := cc.disk
	cc.mu.Unlock()
	var errs []error
	for _, v := range views {
		if err := v.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if disk != nil {
		disk.flush()
	}
	return errors.Join(errs...)
}

// Len returns the number of distinct contact traces held.
func (cc *ContactCache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.entries)
}

// Recorded returns how many recording passes this cache actually ran —
// the misses; hits served from memory or disk do not count.
func (cc *ContactCache) Recorded() uint64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.records
}

// ShardPath returns where key's trace is (or would be) persisted in the
// sharded layout — exported for diagnostics and tests.
func (cc *ContactCache) ShardPath(key string) string {
	st := cc.store()
	if st == nil {
		return ""
	}
	return st.shardPath(key)
}
