package server

import (
	"context"

	"grammarviz/internal/cache"
	"grammarviz/internal/coalesce"
	"grammarviz/internal/metrics"
)

// memo is one sharded LRU of analysis results, the flight group that
// coalesces concurrent misses for the same key, and its own counters: one
// for detectors, one for ensemble results.
type memo[V any] struct {
	cache   *cache.Sharded[V]
	flights coalesce.Group[V]

	hits, misses, evictions, shared *metrics.Counter

	// testHookInduce, when set, runs at the start of every build — tests
	// use it to hold a flight open until every caller has joined.
	testHookInduce func()
}

// memoMetrics holds the kind-labelled counter families memos report into.
type memoMetrics struct{ hits, misses, evictions, shared *metrics.CounterVec }

// newMemo builds a memo sized by cfg whose counters are mm's children for
// kind, resolved once here so that a cache hit stays one atomic add.
func newMemo[V any](cfg Config, mm memoMetrics, kind string) *memo[V] {
	return &memo[V]{
		cache:     cache.NewSharded[V](cfg.CacheSize, cfg.CacheShards),
		hits:      mm.hits.With(kind),
		misses:    mm.misses.With(kind),
		evictions: mm.evictions.With(kind),
		shared:    mm.shared.With(kind),
	}
}

// get returns the cached value for key, building and caching it on a
// miss; concurrent misses for one key share a single build. reused reports
// that this request skipped the build (cache hit or joined flight). The
// key must cover everything that influences the value.
func (m *memo[V]) get(ctx context.Context, key string, build func(context.Context) (V, error)) (v V, reused bool, err error) {
	if v, ok := m.cache.Get(key); ok {
		m.hits.Inc()
		return v, true, nil
	}
	v, joined, err := m.flights.Do(ctx, key, func(fctx context.Context) (V, error) {
		// A flight that completed between our cache probe and joining may
		// have populated the cache already — re-check (without touching the
		// lookup statistics) before paying for the build.
		if v, ok := m.cache.Peek(key); ok {
			return v, nil
		}
		m.misses.Inc()
		if m.testHookInduce != nil {
			m.testHookInduce()
		}
		v, err := build(fctx)
		if err != nil {
			return v, err
		}
		if m.cache.Add(key, v) {
			m.evictions.Inc()
		}
		return v, nil
	})
	if err != nil {
		var zero V
		return zero, false, err
	}
	if joined {
		m.shared.Inc()
	}
	return v, joined, nil
}
