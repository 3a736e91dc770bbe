// Package index provides the two index structures used by BatchDB's OLTP
// replica (paper §4, Fig. 2): a hash index for point lookups and an
// ordered index for range scans.
//
// The paper uses a simplified lock-free Bw-Tree based on multi-word
// compare-and-swap [32, 37]. Go's memory model and lack of pointer
// tagging make that exact design impractical, so this package substitutes
// structures with the same interface contract:
//
//   - Hash: a sharded hash map with per-shard reader/writer locks.
//   - SkipList: an ordered map whose readers are lock-free (they follow
//     atomic pointers and never block) while writers serialize on a
//     single mutex. Writer serialization is harmless here because index
//     mutation on the OLTP replica happens from a small set of worker
//     threads executing short transactions, and — as in Hekaton — index
//     entries are only physically removed by background garbage
//     collection, never inline with transaction execution.
//
// Both structures map dense uint64 keys to values; callers compose
// multi-column keys into uint64 (see internal/tpcc) or use uniquifier
// bits for non-unique secondary keys.
package index

import "sync"

const hashShards = 64 // power of two

// Hash is a sharded concurrent hash map from uint64 keys to V.
type Hash[V any] struct {
	shards [hashShards]hashShard[V]
}

type hashShard[V any] struct {
	mu sync.RWMutex
	m  map[uint64]V
}

// NewHash returns an empty hash index sized for roughly n entries.
func NewHash[V any](n int) *Hash[V] {
	h := &Hash[V]{}
	per := n / hashShards
	if per < 8 {
		per = 8
	}
	for i := range h.shards {
		h.shards[i].m = make(map[uint64]V, per)
	}
	return h
}

// shardIndex maps a key to its shard ordinal. Fibonacci hashing spreads
// dense keys across shards.
func shardIndex(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> (64 - 6))
}

func (h *Hash[V]) shard(key uint64) *hashShard[V] {
	return &h.shards[shardIndex(key)]
}

// Get returns the value for key.
func (h *Hash[V]) Get(key uint64) (V, bool) {
	s := h.shard(key)
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	return v, ok
}

// PutIfAbsent stores value under key only if no entry exists. It returns
// the resident value and whether the put took effect.
func (h *Hash[V]) PutIfAbsent(key uint64, v V) (V, bool) {
	s := h.shard(key)
	s.mu.Lock()
	if old, ok := s.m[key]; ok {
		s.mu.Unlock()
		return old, false
	}
	s.m[key] = v
	s.mu.Unlock()
	return v, true
}

// GetOrPutBatch resolves every key to its resident value, creating
// absent entries with mk. Results land in out (input order); inserted[i]
// reports whether out[i] was created by this call. Both slices must have
// len(keys).
//
// Keys are grouped by shard first (the ALEX batch-insertion pattern:
// group by target node, then do all the work per node at once), so the
// whole batch costs one lock acquisition per touched shard instead of
// up to two per key.
// Duplicate keys in the batch converge on one entry, like racing
// PutIfAbsent callers.
func (h *Hash[V]) GetOrPutBatch(keys []uint64, mk func(key uint64) V, out []V, inserted []bool) {
	// Counting sort of key positions by shard.
	var counts [hashShards]int32
	for _, k := range keys {
		counts[shardIndex(k)]++
	}
	var starts [hashShards]int32
	var sum int32
	for i, c := range counts {
		starts[i] = sum
		sum += c
	}
	order := make([]int32, len(keys))
	next := starts
	for i, k := range keys {
		s := shardIndex(k)
		order[next[s]] = int32(i)
		next[s]++
	}
	for si := range h.shards {
		if counts[si] == 0 {
			continue
		}
		group := order[starts[si]:next[si]]
		s := &h.shards[si]
		s.mu.Lock()
		for _, i := range group {
			k := keys[i]
			if v, ok := s.m[k]; ok {
				out[i] = v
				continue
			}
			v := mk(k)
			s.m[k] = v
			out[i] = v
			inserted[i] = true
		}
		s.mu.Unlock()
	}
}

// CompareAndDelete removes key only if its value satisfies eq, reporting
// whether an entry was removed. It lets callers retire an entry without
// clobbering a replacement installed concurrently under the same key.
func (h *Hash[V]) CompareAndDelete(key uint64, eq func(V) bool) bool {
	s := h.shard(key)
	s.mu.Lock()
	v, ok := s.m[key]
	if ok && eq(v) {
		delete(s.m, key)
		s.mu.Unlock()
		return true
	}
	s.mu.Unlock()
	return false
}

// Range calls fn for every entry until fn returns false. Entries
// inserted or removed concurrently may or may not be observed; each
// shard is visited under its read lock.
func (h *Hash[V]) Range(fn func(key uint64, v V) bool) {
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !fn(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}
