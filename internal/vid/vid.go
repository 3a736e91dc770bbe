// Package vid manages snapshot version identifiers (VIDs) for BatchDB.
//
// Every committed transaction is assigned a unique, monotonically
// increasing VID. Readers take snapshots at the current "watermark": the
// highest VID such that every transaction with a smaller-or-equal VID has
// finished installing its versions. Because VIDs are assigned before
// version installation completes, commits may finish out of order; the
// watermark is only advanced once all earlier commits have published.
// This guarantees that a snapshot never observes half of a transaction,
// which is the property the OLAP replica relies on when it asks the
// primary for "the latest committed snapshot version" (paper §4, §5).
package vid

import (
	"sync"
	"sync/atomic"
)

// Infinity marks a version that is still visible to all future snapshots
// (the VIDto of the newest version in a chain, paper Fig. 2).
const Infinity = ^uint64(0)

// Allocator hands out commit VIDs and tracks the publication watermark.
//
// The zero value is not usable; call NewAllocator. VID 0 is reserved for
// "initial load": data present before the first transaction commits.
type Allocator struct {
	next atomic.Uint64 // last VID handed out

	mu        sync.Mutex
	watermark atomic.Uint64 // highest fully published prefix
	published map[uint64]struct{}
}

// NewAllocator returns an allocator whose watermark starts at 0, meaning
// only initially loaded data (VID 0) is visible.
func NewAllocator() *Allocator {
	return &Allocator{published: make(map[uint64]struct{})}
}

// Allocate reserves the next commit VID. The caller must eventually call
// Publish with the returned VID once all versions of the committing
// transaction are installed, otherwise the watermark stalls.
func (a *Allocator) Allocate() uint64 {
	return a.next.Add(1)
}

// Publish marks a previously Allocated VID as fully installed and
// advances the watermark over any contiguous published prefix.
func (a *Allocator) Publish(v uint64) {
	a.mu.Lock()
	a.published[v] = struct{}{}
	w0 := a.watermark.Load()
	w := w0
	for {
		if _, ok := a.published[w+1]; !ok {
			break
		}
		delete(a.published, w+1)
		w++
	}
	if w != w0 {
		a.watermark.Store(w)
	}
	a.mu.Unlock()
}

// StartAt repositions the allocator at base: the watermark becomes base
// and the next Allocate returns base+1. It exists for checkpoint
// restore, which rebuilds the store's state as-of the checkpoint VID and
// must resume the dense VID sequence there. Must not race any
// transaction — call before the engine starts.
func (a *Allocator) StartAt(base uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.next.Store(base)
	a.watermark.Store(base)
	for v := range a.published {
		delete(a.published, v)
	}
}

// Watermark returns the highest VID v such that all transactions with
// VIDs <= v are fully published. Reading at this VID yields a consistent
// snapshot.
func (a *Allocator) Watermark() uint64 {
	return a.watermark.Load()
}
