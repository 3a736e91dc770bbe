package mvcc

import (
	"sync"
	"sync/atomic"
)

const chunkSize = 4096

// chainList is the table's scan list: every chain that is indexed is in
// exactly one slot of it, for full scans (snapshot bootstrap, checkpoint,
// the GC oracle, the shared-engine baselines).
//
// Slots live in fixed-size chunks found through a directory, so a slot
// is addressed in O(1) however many exist; the directory is replaced
// (copy-on-grow, under mu) only when a chunk boundary is crossed. Slots
// of retired chains go on a free list and are handed out again before
// the list grows, so under a constant-size workload the slot count
// follows the live rows, not the rows ever inserted.
//
// Scan order is therefore arbitrary — a new chain may land in any
// recycled slot. No consumer depends on insertion order: checkpoints
// and bootstraps name every row by its primary key, and every other
// reader aggregates.
type chainList struct {
	dir    atomic.Pointer[[]*listChunk]
	length atomic.Int64 // slots ever reserved (high-water mark)

	mu    sync.Mutex // guards free and directory growth
	free  []int64
	nfree atomic.Int64 // len(free), readable without mu
}

type listChunk [chunkSize]atomic.Pointer[Chain]

func newChainList() *chainList {
	l := &chainList{}
	l.dir.Store(&[]*listChunk{new(listChunk)})
	return l
}

// append takes a slot (a recycled one if any), records it in c so GC can
// later release it, and publishes c into it.
func (l *chainList) append(c *Chain) {
	idx := int64(-1)
	if l.nfree.Load() > 0 {
		l.mu.Lock()
		if n := len(l.free); n > 0 {
			idx = l.free[n-1]
			l.free = l.free[:n-1]
			l.nfree.Store(int64(n - 1))
		}
		l.mu.Unlock()
	}
	if idx < 0 {
		idx = l.length.Add(1) - 1
	}
	c.slot = idx
	l.slot(idx).Store(c)
}

// slot returns the cell at idx, growing the directory to reach it.
func (l *chainList) slot(idx int64) *atomic.Pointer[Chain] {
	ci := int(idx / chunkSize)
	dir := *l.dir.Load()
	if ci >= len(dir) {
		l.mu.Lock()
		dir = *l.dir.Load()
		if ci >= len(dir) {
			grown := make([]*listChunk, ci+1)
			copy(grown, dir)
			for i := len(dir); i <= ci; i++ {
				grown[i] = new(listChunk)
			}
			dir = grown
			l.dir.Store(&grown)
		}
		l.mu.Unlock()
	}
	return &dir[ci][idx%chunkSize]
}

// release empties the slot at idx and makes it available to append
// (used when a chain is retired).
func (l *chainList) release(idx int64) {
	l.slot(idx).Store(nil)
	l.mu.Lock()
	l.free = append(l.free, idx)
	l.nfree.Store(int64(len(l.free)))
	l.mu.Unlock()
}

// forEach visits every chain that was published before the call and not
// retired since, each at most once (a chain occupies one slot for its
// whole life), in no particular order. Slots reserved by concurrent
// appenders that have not yet been published are skipped.
func (l *chainList) forEach(fn func(*Chain) bool) {
	n := l.length.Load()
	for ci, chunk := range *l.dir.Load() {
		base := int64(ci) * chunkSize
		if base >= n {
			return
		}
		for i := range chunk[:min(n-base, chunkSize)] {
			if c := chunk[i].Load(); c != nil && !fn(c) {
				return
			}
		}
	}
}

// slots returns the number of slots ever reserved; live the number
// currently holding a chain.
func (l *chainList) slots() int { return int(l.length.Load()) }
func (l *chainList) live() int  { return int(l.length.Load() - l.nfree.Load()) }
