package mvcc

import (
	"sync/atomic"

	"batchdb/internal/storage"
	"batchdb/internal/vid"
)

// activeSlots bounds concurrently running transactions; BatchDB executes
// transactions on a small set of OLTP workers, so this is generous.
const activeSlots = 1024

// activeSet tracks the snapshots of running transactions so GC knows the
// oldest snapshot that can still read old versions. It plays the role of
// Hekaton's epoch management (paper §4) but for version visibility only;
// memory reclamation is the Go runtime's job.
type activeSet struct {
	slots [activeSlots]atomic.Uint64 // snap+1, 0 = free
	hint  atomic.Uint32
}

// register claims a slot holding snap. To avoid a race with GC, callers
// first register a conservative snapshot (0), then read the watermark,
// then raise the slot with update — so the slot value never exceeds the
// transaction's true snapshot while it runs.
func (a *activeSet) register(snap uint64) int {
	h := a.hint.Add(1)
	for i := 0; i < activeSlots; i++ {
		idx := (int(h) + i) % activeSlots
		if a.slots[idx].CompareAndSwap(0, snap+1) {
			return idx
		}
	}
	// All slots busy: with bounded OLTP workers this cannot happen; -1
	// disables tracking for this transaction (GC then relies on the
	// other registered snapshots, which bound the horizon anyway).
	return -1
}

func (a *activeSet) update(slot int, snap uint64) {
	if slot >= 0 {
		a.slots[slot].Store(snap + 1)
	}
}

func (a *activeSet) unregister(slot int) {
	if slot >= 0 {
		a.slots[slot].Store(0)
	}
}

// min returns the smallest registered snapshot, or def if none.
func (a *activeSet) min(def uint64) uint64 {
	m := def
	for i := range a.slots {
		if v := a.slots[i].Load(); v != 0 && v-1 < m {
			m = v - 1
		}
	}
	return m
}

// Store is the OLTP replica's storage engine: a set of versioned tables
// sharing one commit-VID space.
type Store struct {
	VIDs   *vid.Allocator
	tables map[storage.TableID]*Table
	order  []*Table
	txnIDs atomic.Uint64
	active activeSet
	gc     gcTotals
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{VIDs: vid.NewAllocator(), tables: make(map[storage.TableID]*Table)}
}

// CreateTable registers a new table. Not safe to call concurrently with
// transactions; do all DDL up front.
func (s *Store) CreateTable(schema *storage.Schema, keyFn storage.KeyFunc, capacityHint int) *Table {
	t := NewTable(schema, keyFn, capacityHint)
	s.tables[schema.ID] = t
	s.order = append(s.order, t)
	return t
}

// Table returns the table with the given ID, or nil.
func (s *Store) Table(id storage.TableID) *Table { return s.tables[id] }

// Tables returns all tables in creation order.
func (s *Store) Tables() []*Table { return s.order }

// Begin starts a read-write transaction at the current watermark.
func (s *Store) Begin() *Txn {
	slot := s.active.register(0)
	snap := s.VIDs.Watermark()
	s.active.update(slot, snap)
	return &Txn{
		store: s,
		snap:  snap,
		id:    s.txnIDs.Add(1) | markerBit,
		slot:  slot,
	}
}

// BeginRO starts a read-only transaction at the current watermark. It
// must finish with Release.
func (s *Store) BeginRO() *Txn {
	slot := s.active.register(0)
	snap := s.VIDs.Watermark()
	s.active.update(slot, snap)
	return &Txn{store: s, snap: snap, slot: slot}
}

// BeginROAt starts a read-only transaction at an explicit snapshot VID
// (which must be <= the watermark to be meaningful).
func (s *Store) BeginROAt(snap uint64) *Txn {
	slot := s.active.register(0)
	s.active.update(slot, snap)
	return &Txn{store: s, snap: snap, slot: slot}
}

// BeginAt starts a read-write transaction at an explicit snapshot. It
// exists for command-log replay: recovery re-executes each logged
// procedure at its original ReadVID so it observes exactly the data the
// original execution saw (paper §4 "Logging": read and committed
// snapshot versions are logged for correct recovery).
func (s *Store) BeginAt(snap uint64) *Txn {
	slot := s.active.register(0)
	s.active.update(slot, snap)
	return &Txn{
		store: s,
		snap:  snap,
		id:    s.txnIDs.Add(1) | markerBit,
		slot:  slot,
	}
}

// Release finishes a read-only transaction.
func (tx *Txn) Release() {
	if tx.done {
		return
	}
	tx.done = true
	tx.store.release(tx)
}

func (s *Store) release(tx *Txn) { s.active.unregister(tx.slot) }

// MinActiveSnapshot returns the oldest snapshot any running transaction
// reads at (or the current watermark if none) — the GC horizon.
func (s *Store) MinActiveSnapshot() uint64 {
	return s.active.min(s.VIDs.Watermark())
}
