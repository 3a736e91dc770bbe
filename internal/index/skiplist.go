package index

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

const maxLevel = 24

// SkipList is an ordered concurrent map from uint64 keys to V.
//
// Readers (Seek, iteration) are lock-free: they only follow atomic next
// pointers, so they never block behind writers and always observe a
// structurally consistent list. Writers (Put, PutBatch, CompareAndDelete)
// serialize on an internal mutex; see the package comment for why this
// is an acceptable substitute for the paper's lock-free Bw-Tree.
type SkipList[V any] struct {
	head  *slNode[V]
	level atomic.Int32

	wmu sync.Mutex
	rng *rand.Rand
}

type slNode[V any] struct {
	key uint64
	// val is replaced atomically so lock-free readers never observe a
	// torn value when Put overwrites an existing key.
	val  atomic.Pointer[V]
	next []atomic.Pointer[slNode[V]]
}

// NewSkipList returns an empty list. The seed only affects level
// distribution; any value yields correct behaviour.
func NewSkipList[V any](seed int64) *SkipList[V] {
	s := &SkipList[V]{
		head: &slNode[V]{next: make([]atomic.Pointer[slNode[V]], maxLevel)},
		rng:  rand.New(rand.NewSource(seed)),
	}
	s.level.Store(1)
	return s
}

func (s *SkipList[V]) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && s.rng.Int63()&3 == 0 { // p = 1/4
		lvl++
	}
	return lvl
}

// findPreds fills preds with the rightmost node at each level whose key
// is < key, and returns the node at level 0 following preds[0] (the
// candidate match). Caller must hold wmu when using preds for mutation.
func (s *SkipList[V]) findPreds(key uint64, preds *[maxLevel]*slNode[V]) *slNode[V] {
	x := s.head
	for i := int(s.level.Load()) - 1; i >= 0; i-- {
		for {
			nxt := x.next[i].Load()
			if nxt == nil || nxt.key >= key {
				break
			}
			x = nxt
		}
		preds[i] = x
	}
	return x.next[0].Load()
}

// Put inserts or replaces the value under key.
func (s *SkipList[V]) Put(key uint64, v V) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var preds [maxLevel]*slNode[V]
	cand := s.findPreds(key, &preds)
	if cand != nil && cand.key == key {
		cand.val.Store(&v)
		return
	}
	lvl := s.randomLevel()
	cur := int(s.level.Load())
	for i := cur; i < lvl; i++ {
		preds[i] = s.head
	}
	if lvl > cur {
		s.level.Store(int32(lvl))
	}
	n := &slNode[V]{key: key, next: make([]atomic.Pointer[slNode[V]], lvl)}
	n.val.Store(&v)
	// Set the new node's forward pointers before publishing it, bottom
	// level last-to-first so lock-free readers never see a dangling hop.
	for i := 0; i < lvl; i++ {
		n.next[i].Store(preds[i].next[i].Load())
	}
	for i := 0; i < lvl; i++ {
		preds[i].next[i].Store(n)
	}
}

// PutBatch inserts or replaces every (keys[i], vals[i]) pair under one
// writer-lock acquisition. The batch is processed in ascending key order
// with a finger search: each insertion resumes from the predecessors of
// the previous one instead of descending from the head, so a sorted run
// of k nearby keys costs O(k + log n) pointer hops rather than
// O(k log n) — the ordered-bulk-insert half of the ALEX batch pattern.
// Readers stay lock-free throughout and observe each insert atomically.
func (s *SkipList[V]) PutBatch(keys []uint64, vals []V) {
	if len(keys) != len(vals) {
		panic("index: PutBatch length mismatch")
	}
	if len(keys) == 0 {
		return
	}
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	// Stable so duplicate keys within the batch apply in input order
	// (last write wins, matching a sequence of Puts).
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })

	s.wmu.Lock()
	defer s.wmu.Unlock()
	var preds [maxLevel]*slNode[V]
	for i := range preds {
		preds[i] = s.head
	}
	for _, j := range order {
		key, v := keys[j], vals[j]
		// Descend from the top, but never behind the previous key's
		// predecessor at each level (keys are ascending, so old preds
		// remain valid lower bounds).
		x := s.head
		for i := int(s.level.Load()) - 1; i >= 0; i-- {
			if p := preds[i]; p != s.head && (x == s.head || p.key > x.key) {
				x = p
			}
			for {
				nxt := x.next[i].Load()
				if nxt == nil || nxt.key >= key {
					break
				}
				x = nxt
			}
			preds[i] = x
		}
		if cand := preds[0].next[0].Load(); cand != nil && cand.key == key {
			cand.val.Store(&v)
			continue
		}
		lvl := s.randomLevel()
		cur := int(s.level.Load())
		for i := cur; i < lvl; i++ {
			preds[i] = s.head
		}
		if lvl > cur {
			s.level.Store(int32(lvl))
		}
		n := &slNode[V]{key: key, next: make([]atomic.Pointer[slNode[V]], lvl)}
		n.val.Store(&v)
		for i := 0; i < lvl; i++ {
			n.next[i].Store(preds[i].next[i].Load())
		}
		for i := 0; i < lvl; i++ {
			preds[i].next[i].Store(n)
		}
	}
}

// CompareAndDelete removes key only if its value satisfies eq, reporting
// whether an entry was removed. eq runs under the writer lock, so its
// verdict cannot be overtaken by a concurrent Put of the same key: the
// Put lands either before eq looks or after the entry is gone.
func (s *SkipList[V]) CompareAndDelete(key uint64, eq func(V) bool) bool {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var preds [maxLevel]*slNode[V]
	cand := s.findPreds(key, &preds)
	if cand == nil || cand.key != key || !eq(*cand.val.Load()) {
		return false
	}
	for i := len(cand.next) - 1; i >= 0; i-- {
		// preds[i] may not directly precede cand at level i if cand is
		// shorter than the current list level; only unlink where linked.
		if preds[i].next[i].Load() == cand {
			preds[i].next[i].Store(cand.next[i].Load())
		}
	}
	return true
}

// Seek returns an iterator positioned at the smallest key >= key.
func (s *SkipList[V]) Seek(key uint64) *Iterator[V] {
	x := s.head
	for i := int(s.level.Load()) - 1; i >= 0; i-- {
		for {
			nxt := x.next[i].Load()
			if nxt == nil || nxt.key >= key {
				break
			}
			x = nxt
		}
	}
	return &Iterator[V]{cur: x.next[0].Load()}
}

// Min returns an iterator positioned at the smallest key.
func (s *SkipList[V]) Min() *Iterator[V] {
	return &Iterator[V]{cur: s.head.next[0].Load()}
}

// Iterator walks a SkipList in ascending key order. It is valid to use
// concurrently with writers: it observes some consistent interleaving of
// inserts and deletes that happen while it runs.
type Iterator[V any] struct {
	cur *slNode[V]
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator[V]) Valid() bool { return it.cur != nil }

// Key returns the current key. Only call when Valid.
func (it *Iterator[V]) Key() uint64 { return it.cur.key }

// Value returns the current value. Only call when Valid.
func (it *Iterator[V]) Value() V { return *it.cur.val.Load() }

// Next advances to the next entry.
func (it *Iterator[V]) Next() { it.cur = it.cur.next[0].Load() }
