package mvcc

import "sync/atomic"

// Version garbage collection (paper §4 "Scheduling": OLTP workers
// amortize GC across batches).
//
// Every write other than the insert of a brand-new row leaves something
// a later snapshot horizon makes unreachable: an update the version it
// superseded, a delete the whole row, a key-changing update a stale
// secondary-index entry. The transaction's own write set names exactly
// those chains, so the worker that committed it notes them in its
// Collector, tagged with the commit VID, and revisits each one once
// MinActiveSnapshot has passed that VID — when no present or future
// snapshot can see what the write replaced. The cost follows the write
// rate; nothing scans the store.
//
// CollectGarbage, the full sweep this replaced, applies the same
// per-chain step (collectChain) to every chain and then cross-checks
// every secondary-index entry. It is the oracle the tests compare the
// incremental path against, and a fallback for callers that hold no
// Collector.
//
// Memory itself is reclaimed by Go's GC once unlinked.

// GCStats summarizes garbage-collection work.
type GCStats struct {
	// Horizon is the snapshot below which versions were reclaimable.
	Horizon uint64
	// ChainsVisited counts chains examined.
	ChainsVisited int
	// VersionsUnlinked counts records cut out of version chains.
	VersionsUnlinked int
	// ChainsRetired counts primary-index entries removed for rows whose
	// deletion is no longer visible to any possible snapshot.
	ChainsRetired int
	// IndexEntriesRemoved counts secondary-index entries dropped because
	// they pointed at retired chains or no longer match any version.
	IndexEntriesRemoved int
}

// gcTotals are the store's cumulative GC counters, fed by every path
// that unlinks or retires (collectors, the sweep, Abort).
type gcTotals struct {
	chainsVisited    atomic.Uint64
	versionsUnlinked atomic.Uint64
	chainsRetired    atomic.Uint64
}

// ChainsVisited returns the chains GC has examined so far.
func (s *Store) ChainsVisited() uint64 { return s.gc.chainsVisited.Load() }

// VersionsUnlinked returns the versions GC has cut out of chains so far.
func (s *Store) VersionsUnlinked() uint64 { return s.gc.versionsUnlinked.Load() }

// ChainsRetired returns the rows GC has removed from the indexes so far.
func (s *Store) ChainsRetired() uint64 { return s.gc.chainsRetired.Load() }

// add folds one pass's work into the totals.
func (g *gcTotals) add(st *GCStats) {
	g.chainsVisited.Add(uint64(st.ChainsVisited))
	g.versionsUnlinked.Add(uint64(st.VersionsUnlinked))
	g.chainsRetired.Add(uint64(st.ChainsRetired))
}

// Collector is one OLTP worker's incremental garbage collector. It is
// owned by a single goroutine; only Pending may be called from others.
type Collector struct {
	store *Store
	// queue holds the chains to revisit, in commit-VID order (a worker's
	// commits are VID-monotonic).
	queue   []revisit
	pending atomic.Int64
}

type revisit struct {
	vid   uint64
	table *Table
	chain *Chain
}

// NewCollector returns an empty collector over the store.
func (s *Store) NewCollector() *Collector { return &Collector{store: s} }

// Committed notes the chains a transaction that committed at cv wrote.
// Pass tx.Writes() right after Commit.
func (g *Collector) Committed(writes []WriteOp, cv uint64) {
	for i := range writes {
		op := &writes[i]
		if op.Kind == OpInsert && op.New.older.Load() == nil {
			continue // first version of a new row: nothing was replaced
		}
		g.queue = append(g.queue, revisit{vid: cv, table: op.Table, chain: op.Chain})
	}
	g.pending.Store(int64(len(g.queue)))
}

// Collect re-reads the horizon and revisits every noted chain whose
// commit it has passed: superseded versions are unlinked, dead rows
// leave the primary index and the scan list, and secondary-index
// entries only the dropped versions derived are removed. Chains noted
// at later VIDs stay queued.
func (g *Collector) Collect() GCStats {
	s := g.store
	st := GCStats{Horizon: s.MinActiveSnapshot()}
	n, again := 0, 0
	for ; n < len(g.queue) && g.queue[n].vid <= st.Horizon; n++ {
		if r := g.queue[n]; !r.table.collectChain(r.chain, st.Horizon, &st) {
			// A writer was on the chain; whether it commits or aborts is
			// not known yet. Keep the note, ahead of the later ones.
			g.queue[again] = r
			again++
		}
	}
	if n > again {
		kept := again + copy(g.queue[again:], g.queue[n:])
		clear(g.queue[kept:])
		g.queue = g.queue[:kept]
		g.pending.Store(int64(kept))
	}
	s.gc.add(&st)
	return st
}

// Pending returns the number of chains waiting to be revisited.
func (g *Collector) Pending() int { return int(g.pending.Load()) }

// CollectGarbage sweeps the whole store: it unlinks versions that no
// active or future snapshot can observe and retires fully dead rows from
// the indexes, visiting every chain and every secondary-index entry. It
// is safe to run concurrently with transactions and with collectors.
func (s *Store) CollectGarbage() GCStats {
	st := GCStats{Horizon: s.MinActiveSnapshot()}
	for _, t := range s.order {
		t.chains.forEach(func(c *Chain) bool {
			t.collectChain(c, st.Horizon, &st)
			return true
		})
		for _, sec := range t.sec {
			sec.sweep(st.Horizon, &st)
		}
	}
	s.gc.add(&st)
	return st
}

// collectChain brings one chain up to date with the horizon. It reports
// false when the chain looked dead but a concurrent writer kept it from
// being retired, in which case it has to be looked at again.
func (t *Table) collectChain(c *Chain, horizon uint64, st *GCStats) bool {
	st.ChainsVisited++
	// Pop aborted records stranded at the head.
	for {
		h := c.head.Load()
		if h == nil || h == retiredRecord || h.vidFrom.Load() != abortedMarker {
			break
		}
		if c.head.CompareAndSwap(h, h.older.Load()) {
			st.VersionsUnlinked++
		}
	}
	if !c.liveAtOrAfter(horizon) {
		return t.retire(c, horizon, st)
	}
	// Truncate the chain after the decisive version at the horizon: the
	// newest record with a committed VIDfrom <= horizon serves every
	// snapshot >= horizon, so anything older is unreachable.
	for r := c.head.Load(); r != nil; r = r.older.Load() {
		from := r.vidFrom.Load()
		if isMarker(from) || from > horizon {
			// Also splice out aborted records mid-chain.
			next := r.older.Load()
			for next != nil && next.vidFrom.Load() == abortedMarker {
				skip := next.older.Load()
				if r.older.CompareAndSwap(next, skip) {
					st.VersionsUnlinked++
				}
				next = r.older.Load()
			}
			continue
		}
		for u := r.older.Swap(nil); u != nil; u = u.older.Load() {
			st.VersionsUnlinked++
			st.IndexEntriesRemoved += t.dropStaleKeys(c, u.Data)
		}
		break
	}
	return true
}

// retire removes a chain that is dead to every snapshot >= horizon (or
// empty) from the primary index, the scan list and the secondary
// indexes. Safe against concurrent writers and other collectors: the
// chain head is poisoned first so no writer can sneak an insert in, and
// only the goroutine whose poisoning succeeds goes on. Readers that
// already hold the chain see no visible version, which remains correct.
// It reports false when a writer got in the way.
func (t *Table) retire(c *Chain, horizon uint64, st *GCStats) bool {
	h := c.head.Load()
	if h == retiredRecord {
		return true // already retired
	}
	if h == nil {
		// An empty chain the index does not map is one its creator has
		// listed but not yet published (or is about to withdraw, having
		// lost the race for the key); it is the creator's to deal with.
		if v, ok := t.pk.Get(c.Key); !ok || v != c {
			return true
		}
	}
	if !c.head.CompareAndSwap(h, retiredRecord) {
		return false // a writer is reviving the row
	}
	if h != nil && c.liveWas(h, horizon) {
		// The head we poisoned must itself be dead; otherwise restore.
		c.head.CompareAndSwap(retiredRecord, h)
		return false
	}
	// Drop the primary-index entry only if it still maps to this chain —
	// a re-insert may already have replaced it.
	t.pk.CompareAndDelete(c.Key, func(v *Chain) bool { return v == c })
	t.chains.release(c.slot)
	st.ChainsRetired++
	for r := h; r != nil; r = r.older.Load() {
		st.IndexEntriesRemoved += t.dropStaleKeys(c, r.Data)
	}
	return true
}

// discard cleans up after a tuple image that left c without ever
// committing (its transaction aborted, or replaced it with a later write
// of its own): secondary-index entries only it derived go, and so does
// the chain if that leaves it empty. No transaction leaves anything
// behind for a sweep to find.
func (s *Store) discard(t *Table, c *Chain, data []byte) {
	var st GCStats
	t.dropStaleKeys(c, data)
	if c.head.Load() == nil {
		t.retire(c, 0, &st)
		s.gc.add(&st)
	}
}

// dropStaleKeys removes, from every secondary index, the entry that
// data's key maps to c — unless a version still linked into c derives
// the same key. It is called for tuple images that have just left the
// chain (unlinked, aborted, retired) and reports the entries removed.
//
// The final check runs under the index's writer lock. Writers install a
// version before they index it, so a concurrent writer giving the row
// this key back is either seen by the check (its version is linked) or
// re-adds the entry afterwards; the entry cannot be lost.
func (t *Table) dropStaleKeys(c *Chain, data []byte) int {
	n := 0
	for _, s := range t.sec {
		k := s.KeyFn(data)
		if c.derives(s, k) {
			continue
		}
		if s.sl.CompareAndDelete(k, func(v *Chain) bool { return v == c && !c.derives(s, k) }) {
			n++
		}
	}
	return n
}

// derives reports whether any version linked into c has secondary key k.
func (c *Chain) derives(s *Secondary, k uint64) bool {
	for r := c.head.Load(); r != nil; r = r.older.Load() {
		if r.vidFrom.Load() != abortedMarker && s.KeyFn(r.Data) == k {
			return true
		}
	}
	return false
}

// sweep removes index entries whose chain was retired or whose
// indexed key no longer matches any retained version — the whole-index
// cross-check of the sweep; the incremental path removes the same
// entries as their versions leave the chain.
func (sec *Secondary) sweep(horizon uint64, st *GCStats) {
	var stale []uint64
	for it := sec.sl.Min(); it.Valid(); it.Next() {
		if c := it.Value(); !c.liveAtOrAfter(horizon) || !c.derives(sec, it.Key()) {
			stale = append(stale, it.Key())
		}
	}
	for _, k := range stale {
		if sec.sl.CompareAndDelete(k, func(c *Chain) bool {
			return !c.liveAtOrAfter(horizon) || !c.derives(sec, k)
		}) {
			st.IndexEntriesRemoved++
		}
	}
}
