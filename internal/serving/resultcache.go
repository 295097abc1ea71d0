package serving

import (
	"container/list"
	"sync"
	"sync/atomic"

	"patchindex/internal/obs"
)

// DefaultResultCacheBytes is the byte budget used when the result cache is
// enabled without an explicit size.
const DefaultResultCacheBytes = 32 << 20 // 32 MiB

// ResultCache caches materialized read-only results keyed on (statement
// text, options, per-table version stamp vector). A Get whose stamp vector
// differs from the cached one proves the underlying tables changed; the
// entry is dropped and the miss is counted as a stale eviction, so readers
// can never observe pre-append rows. Eviction is LRU under a global byte
// budget. Entries larger than maxEntry (budget/8) bypass the cache
// entirely.
//
// The cache is a single mutex-protected structure: it is only consulted for
// statements that were already going to execute, so a hit saves orders of
// magnitude more than the lock costs.
type ResultCache struct {
	enabled atomic.Bool

	mu       sync.Mutex
	budget   int64
	maxEntry int64
	used     int64
	buckets  map[uint64][]*resultEntry
	lru      *list.List // front = most recently used; values are *resultEntry

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	stale     *obs.Counter
	bypass    *obs.Counter
	bytes     *obs.Gauge
	entries   *obs.Gauge
}

type resultEntry struct {
	hash     uint64
	text     string
	opts     OptsKey
	versions []uint64
	bytes    int64
	value    any
	elem     *list.Element
}

// NewResultCache creates a disabled result cache with the given byte
// budget (DefaultResultCacheBytes when <= 0) and registers its metrics.
func NewResultCache(budgetBytes int64, reg *obs.Registry) *ResultCache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultResultCacheBytes
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &ResultCache{
		budget:    budgetBytes,
		maxEntry:  budgetBytes / 8,
		buckets:   make(map[uint64][]*resultEntry),
		lru:       list.New(),
		hits:      reg.Counter("serving_result_cache_hits_total"),
		misses:    reg.Counter("serving_result_cache_misses_total"),
		evictions: reg.Counter("serving_result_cache_evictions_total"),
		stale:     reg.Counter("serving_result_cache_stale_evictions_total"),
		bypass:    reg.Counter("serving_result_cache_bypass_total"),
		bytes:     reg.Gauge("serving_result_cache_bytes"),
		entries:   reg.Gauge("serving_result_cache_entries"),
	}
}

// SetEnabled flips the cache on or off.
func (c *ResultCache) SetEnabled(on bool) {
	if c != nil {
		c.enabled.Store(on)
	}
}

// Enabled reports whether the cache serves entries (one atomic load).
func (c *ResultCache) Enabled() bool { return c != nil && c.enabled.Load() }

// Get returns the result cached for (text, opts) if its version stamp
// vector still matches; a mismatch drops the stale entry. The caller must
// read versions under shared table latches so writers (which hold the
// exclusive latch while bumping versions) cannot interleave.
func (c *ResultCache) Get(text string, opts OptsKey, versions []uint64) (any, bool) {
	if !c.Enabled() {
		return nil, false
	}
	h := hashText(text)
	c.mu.Lock()
	for _, e := range c.buckets[h] {
		if e.opts != opts || e.text != text {
			continue
		}
		if !versionsEqual(e.versions, versions) {
			c.removeLocked(e)
			c.mu.Unlock()
			c.stale.Inc()
			c.misses.Inc()
			return nil, false
		}
		c.lru.MoveToFront(e.elem)
		v := e.value
		c.mu.Unlock()
		c.hits.Inc()
		return v, true
	}
	c.mu.Unlock()
	c.misses.Inc()
	return nil, false
}

// Put stores a result for (text, opts) at the given version stamps.
// Oversized results are bypassed.
func (c *ResultCache) Put(text string, opts OptsKey, versions []uint64, size int64, value any) {
	if !c.Enabled() {
		return
	}
	if size <= 0 {
		size = 1
	}
	if size > c.maxEntry {
		c.bypass.Inc()
		return
	}
	h := hashText(text)
	evicted := 0
	c.mu.Lock()
	for _, e := range c.buckets[h] {
		if e.opts == opts && e.text == text {
			c.removeLocked(e)
			break
		}
	}
	for c.used+size > c.budget {
		el := c.lru.Back()
		if el == nil {
			break
		}
		c.removeLocked(el.Value.(*resultEntry))
		evicted++
	}
	vs := append([]uint64(nil), versions...)
	e := &resultEntry{hash: h, text: text, opts: opts, versions: vs, bytes: size, value: value}
	e.elem = c.lru.PushFront(e)
	c.buckets[h] = append(c.buckets[h], e)
	c.used += size
	used, n := c.used, c.lru.Len()
	c.mu.Unlock()
	c.evictions.Add(int64(evicted))
	c.bytes.Set(used)
	c.entries.Set(int64(n))
}

// removeLocked unlinks e and releases its byte accounting. Caller holds c.mu.
func (c *ResultCache) removeLocked(e *resultEntry) {
	bucket := c.buckets[e.hash]
	for i, b := range bucket {
		if b == e {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(c.buckets, e.hash)
	} else {
		c.buckets[e.hash] = bucket
	}
	c.lru.Remove(e.elem)
	c.used -= e.bytes
	c.bytes.Set(c.used)
	c.entries.Set(int64(c.lru.Len()))
}

func versionsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ResultCacheStats is the /stats serving section for the result cache.
type ResultCacheStats struct {
	Enabled        bool   `json:"enabled"`
	Entries        int    `json:"entries"`
	Bytes          int64  `json:"bytes"`
	BudgetBytes    int64  `json:"budget_bytes"`
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Evictions      uint64 `json:"evictions"`
	StaleEvictions uint64 `json:"stale_evictions"`
	Bypassed       uint64 `json:"bypassed"`
}

// Stats snapshots the cache counters and byte accounting.
func (c *ResultCache) Stats() ResultCacheStats {
	if c == nil {
		return ResultCacheStats{}
	}
	c.mu.Lock()
	s := ResultCacheStats{
		Enabled:     c.Enabled(),
		Entries:     c.lru.Len(),
		Bytes:       c.used,
		BudgetBytes: c.budget,
	}
	c.mu.Unlock()
	s.Hits = uint64(c.hits.Value())
	s.Misses = uint64(c.misses.Value())
	s.Evictions = uint64(c.evictions.Value())
	s.StaleEvictions = uint64(c.stale.Value())
	s.Bypassed = uint64(c.bypass.Value())
	return s
}
