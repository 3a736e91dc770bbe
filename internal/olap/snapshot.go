package olap

import "batchdb/internal/storage"

// Snapshot is one pinned version of the replica: an immutable view of
// every table as of VID. Views are frozen Table structs sharing schema,
// hints and the synopsis-request mask with the canonical tables, but
// holding their own Partitions slice and PK-index pointer — the apply
// round that builds the next version clones exactly the partitions its
// delta touches and installs the result as a new head, so a pinned
// snapshot keeps scanning untouched structures for as long as it is
// held.
//
// Snapshots form a doubly-linked chain ordered oldest (tail) to newest
// (head). Pin/Unpin refcount each node; the reclaimer retires any
// unpinned node that is not the current head, so the chain length is
// 1 + the number of distinct old versions still pinned.
type Snapshot struct {
	r      *Replica
	vid    uint64
	tables map[storage.TableID]*Table
	order  []*Table

	// pins, prev, next are guarded by r.snapMu.
	pins       int
	prev, next *Snapshot
}

// VID returns the snapshot's commit watermark: every update with
// VID <= VID() is reflected, none above it.
func (s *Snapshot) VID() uint64 { return s.vid }

// Table returns the snapshot's view of the table with the given ID, or
// nil.
func (s *Snapshot) Table(id storage.TableID) *Table { return s.tables[id] }

// Tables returns the snapshot's table views in creation order.
func (s *Snapshot) Tables() []*Table { return s.order }

// Unpin releases the snapshot. After the last Unpin of a non-head
// version its structures are unlinked from the chain and become
// garbage. Each PinSnapshot must be matched by exactly one Unpin.
func (s *Snapshot) Unpin() {
	r := s.r
	r.snapMu.Lock()
	s.pins--
	r.reclaimLocked()
	r.snapMu.Unlock()
}

// PinSnapshot pins the newest installed version and returns it. Every
// successful apply round installs a head; wiring, loads and SetFloor
// change the canonical tables outside a round and only mark the head
// stale, so it is rebuilt here on the next pin. An in-place apply round
// holds snapMu throughout, so a pin never lands mid-mutation — it waits
// and gets the round's head.
func (r *Replica) PinSnapshot() *Snapshot {
	r.snapMu.Lock()
	if r.snapHead == nil || r.wiringDirty.Load() {
		r.installHeadLocked(r.buildSnapshotLocked())
	}
	s := r.snapHead
	s.pins++
	r.snapMu.Unlock()
	return s
}

// buildSnapshotLocked wraps the canonical tables' current state in
// frozen views. Caller holds r.snapMu.
func (r *Replica) buildSnapshotLocked() *Snapshot {
	r.mu.Lock()
	vid := r.applied
	r.mu.Unlock()
	s := &Snapshot{
		r:      r,
		vid:    vid,
		tables: make(map[storage.TableID]*Table, len(r.order)),
		order:  make([]*Table, 0, len(r.order)),
	}
	for _, t := range r.order {
		s.addTable(viewOf(t, t.Partitions, t.pkIdx, t.version))
	}
	return s
}

func (s *Snapshot) addTable(v *Table) {
	s.tables[v.Schema.ID] = v
	s.order = append(s.order, v)
}

// viewOf builds one frozen table view: schema, hints and the shared
// synopsis-request mask alias the canonical table, while the partition
// slice, PK index and version are the given (possibly cloned) state.
// The view's apply scratch stays zero — only the canonical table's
// apply goroutine uses it.
func viewOf(t *Table, parts []*Partition, pkIdx *flatIndex, version uint64) *Table {
	return &Table{
		Schema:     t.Schema,
		Partitions: parts,
		capHint:    t.capHint,
		pkHint:     t.pkHint,
		zmBlock:    t.zmBlock,
		compress:   t.compress,
		wantedSyn:  t.wantedSyn,
		version:    version,
		pkFn:       t.pkFn,
		pkIdx:      pkIdx,
	}
}

// installHeadLocked links s as the newest version and retires any
// now-unpinned predecessors. Caller holds r.snapMu.
func (r *Replica) installHeadLocked(s *Snapshot) {
	s.prev = r.snapHead
	if r.snapHead != nil {
		r.snapHead.next = s
	} else {
		r.snapTail = s
	}
	r.snapHead = s
	r.chainLen++
	r.wiringDirty.Store(false)
	r.reclaimLocked()
}

// reclaimLocked unlinks every unpinned non-head node. Caller holds
// r.snapMu.
func (r *Replica) reclaimLocked() {
	for n := r.snapTail; n != nil && n != r.snapHead; {
		next := n.next
		if n.pins == 0 {
			if n.prev != nil {
				n.prev.next = n.next
			} else {
				r.snapTail = n.next
			}
			n.next.prev = n.prev
			n.prev, n.next = nil, nil
			r.chainLen--
			r.retired++
		}
		n = next
	}
}

// SetOnPush registers fn to run after every update push or staged
// reload arrives (outside the replica's locks). The scheduler uses it
// to kick an apply round as soon as new updates exist, which is
// what shrinks staleness below the batch period. Safe to call while a
// live feed is already pushing (fleet nodes start their supervisor
// before the scheduler).
func (r *Replica) SetOnPush(fn func()) {
	r.mu.Lock()
	r.onPush = fn
	r.mu.Unlock()
}

// SnapshotChainLen returns the number of versions currently linked
// (1 when only the head exists; 0 before the first pin or install).
func (r *Replica) SnapshotChainLen() int {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	return r.chainLen
}

// PinnedSnapshots returns the total number of outstanding pins across
// all versions.
func (r *Replica) PinnedSnapshots() int {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	return r.pinnedLocked()
}

func (r *Replica) pinnedLocked() int {
	n := 0
	for s := r.snapTail; s != nil; s = s.next {
		n += s.pins
	}
	return n
}

// RetiredSnapshots returns the number of versions reclaimed so far.
func (r *Replica) RetiredSnapshots() uint64 {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	return r.retired
}

// markWiringDirty records that the canonical tables changed outside an
// apply round's install (wiring, loads, a failed in-place round), so the
// next PinSnapshot rebuilds the head instead of serving a stale view.
func (r *Replica) markWiringDirty() { r.wiringDirty.Store(true) }
