package core

import (
	"sync"
	"sync/atomic"
)

// EdgeProbCache memoizes exact edge-probability estimates across queries.
// The Monte Carlo estimate of one gene pair is the expensive unit of
// refinement work, and popular query patterns (biomarkers, cluster
// representatives) revisit the same pairs; the cache makes repeated
// queries both faster and mutually consistent.
//
// A cache is only valid for one estimator configuration (seed, sample
// count, analytic/one-sided flags); the Engine keys caches by that
// configuration. Safe for concurrent use: the key space is lock-striped
// across shards so parallel refinement workers and concurrent queries do
// not contend on a single mutex, and hit/miss totals are kept in atomic
// counters.
type EdgeProbCache struct {
	shards []cacheShard
	mask   uint64
	hits   atomic.Uint64
	misses atomic.Uint64
}

// cacheShard owns one stripe of the key space. Entries are immutable and
// cheap to recompute, so a simple FIFO bound per shard is enough.
type cacheShard struct {
	mu       sync.Mutex
	capacity int
	m        map[edgeKey]float64
	fifo     []edgeKey
}

type edgeKey struct {
	source int
	a, b   int
}

// cacheShards is the stripe count for large caches; small caches collapse
// to one shard so the configured capacity bound stays exact.
const cacheShards = 16

// NewEdgeProbCache returns a cache bounded to capacity entries
// (65536 when capacity <= 0). Capacities below one page per stripe use a
// single shard.
func NewEdgeProbCache(capacity int) *EdgeProbCache {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	shards := cacheShards
	if capacity < 16*cacheShards {
		shards = 1
	}
	c := &EdgeProbCache{shards: make([]cacheShard, shards), mask: uint64(shards - 1)}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].m = make(map[edgeKey]float64)
	}
	return c
}

func canonicalKey(source, a, b int) edgeKey {
	if a > b {
		a, b = b, a
	}
	return edgeKey{source: source, a: a, b: b}
}

// shardOf routes a key to its stripe with a SplitMix64-style mix so
// consecutive column indices spread across shards.
func (c *EdgeProbCache) shardOf(k edgeKey) *cacheShard {
	z := uint64(k.source)*0x9e3779b97f4a7c15 ^ uint64(k.a)*0xbf58476d1ce4e5b9 ^ uint64(k.b)*0x94d049bb133111eb
	z ^= z >> 29
	z *= 0xff51afd7ed558ccd
	z ^= z >> 32
	return &c.shards[z&c.mask]
}

// Get returns the cached probability of edge (a, b) in the given source
// and records a hit or miss.
func (c *EdgeProbCache) Get(source, a, b int) (float64, bool) {
	k := canonicalKey(source, a, b)
	s := c.shardOf(k)
	s.mu.Lock()
	p, ok := s.m[k]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return p, ok
}

// Put stores the probability of edge (a, b), evicting the oldest entry of
// the key's shard when that shard is full.
func (c *EdgeProbCache) Put(source, a, b int, p float64) {
	k := canonicalKey(source, a, b)
	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[k]; exists {
		s.m[k] = p
		return
	}
	if len(s.m) >= s.capacity {
		oldest := s.fifo[0]
		s.fifo = s.fifo[1:]
		delete(s.m, oldest)
	}
	s.m[k] = p
	s.fifo = append(s.fifo, k)
}

// InvalidateSource drops every cached probability of one data source,
// returning the number of entries removed. Mutations call this instead of
// discarding the whole cache: edge probabilities are keyed by
// (source, column, column), so adding or removing a matrix can only stale
// the entries of that one source — every other source's entries (and the
// cache's lifetime hit/miss counters) stay warm.
func (c *EdgeProbCache) InvalidateSource(source int) int {
	removed := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		kept := s.fifo[:0]
		for _, k := range s.fifo {
			if k.source == source {
				delete(s.m, k)
				removed++
			} else {
				kept = append(kept, k)
			}
		}
		s.fifo = kept
		s.mu.Unlock()
	}
	return removed
}

// Len returns the number of cached entries across all shards.
func (c *EdgeProbCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// CacheStats aggregates cache effectiveness counters since creation.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// Stats returns the lifetime hit/miss totals of the cache.
func (c *EdgeProbCache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// MaxEstimatorCaches bounds how many estimator configurations one CacheSet
// keeps a cache for. Each cache holds up to 65,536 entries, so without a
// bound a client sending a fresh seed on every request would grow memory
// without limit and make every mutation's invalidation walk all of them.
// Eight sits above the handful of configurations a deployment's clients
// use at once (the server default plus a few pinned seeds).
const MaxEstimatorCaches = 8

// CacheSet holds one EdgeProbCache per estimator configuration (sample
// count, seed, analytic and one-sided flags): a cache must never be shared
// across configurations, because the memoized probabilities depend on
// them. It keeps at most MaxEstimatorCaches caches and drops the least
// recently used one to make room; a dropped configuration starts cold
// again, which changes speed, never answers. Dropped caches' hit and miss
// totals carry over into Stats (hits a query still holding a dropped cache
// records afterwards are not counted). Safe for concurrent use.
type CacheSet struct {
	mu      sync.Mutex
	slots   []cacheSlot // most recently used first
	retired CacheStats  // lifetime totals of dropped caches
}

type cacheSlot struct {
	sig   estimatorSig
	cache *EdgeProbCache
}

type estimatorSig struct {
	samples  int
	seed     uint64
	analytic bool
	oneSided bool
}

// For returns (creating if needed) the cache for the estimator settings of
// params and marks it most recently used.
func (s *CacheSet) For(params Params) *EdgeProbCache {
	sig := estimatorSig{
		samples:  params.Samples,
		seed:     params.Seed,
		analytic: params.Analytic,
		oneSided: params.OneSided,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i := 0
	for i < len(s.slots) && s.slots[i].sig != sig {
		i++
	}
	if i == len(s.slots) {
		fresh := cacheSlot{sig: sig, cache: NewEdgeProbCache(0)}
		if i < MaxEstimatorCaches {
			s.slots = append(s.slots, fresh)
		} else {
			// Full: the least recently used configuration makes room.
			i--
			st := s.slots[i].cache.Stats()
			s.retired.Hits += st.Hits
			s.retired.Misses += st.Misses
			s.slots[i] = fresh
		}
	}
	slot := s.slots[i]
	copy(s.slots[1:i+1], s.slots[:i])
	s.slots[0] = slot
	return slot.cache
}

// InvalidateSource drops the cached probabilities of one source from every
// held cache, leaving all other sources' entries (and the hit counters)
// warm.
func (s *CacheSet) InvalidateSource(source int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sl := range s.slots {
		sl.cache.InvalidateSource(source)
	}
}

// Len returns the number of estimator configurations currently held.
func (s *CacheSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.slots)
}

// Stats returns the entries held across all caches and the lifetime hit
// and miss totals, dropped caches included.
func (s *CacheSet) Stats() (entries int, st CacheStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st = s.retired
	for _, sl := range s.slots {
		entries += sl.cache.Len()
		cs := sl.cache.Stats()
		st.Hits += cs.Hits
		st.Misses += cs.Misses
	}
	return entries, st
}
