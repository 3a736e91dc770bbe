// Package olap implements BatchDB's analytical component: the secondary
// replica of paper §5 and the right half of Fig. 1.
//
// The replica keeps one version of its data, and updates are applied
// to it between batches, as the paper's dispatcher does. A batch pins
// the replica at admission (snapshot.go) and scans the canonical
// partitions; every apply round (apply.go) — whether a batch waits on
// it, it runs after a batch, or a push started it — waits until no pin
// is held and mutates those partitions in place, and a pin that arrives
// meanwhile waits for the round. So the partition structures below are
// entirely unsynchronized: an apply round and a reader never overlap,
// and within a round each partition is written by exactly one apply
// goroutine. Exclusive phases replace locks.
//
// Data is horizontally soft-partitioned by a hash of the hidden RowID
// attribute, which both spreads scan work and lets updates be applied to
// all partitions in parallel (paper Fig. 4).
package olap

import (
	"fmt"

	"batchdb/internal/storage"
)

// Partition is one horizontal slice of a replicated table: fixed-width
// tuple slots, a free list of deleted slots, and a hash index from RowID
// to slot.
//
// The paper implements its replica-side hash indexes as
// cacheline-sized-bucket tables probed without locks [10]. Two indexes
// exist here and both are that shape (flatIndex, flatindex.go): flat
// open-addressed arrays of 16-byte entries, read without a lock. The
// RowID index below is touched only by apply step 3 — the hash join of a
// round's updates against the replica — one goroutine per partition. The
// primary-key index that query probes go through (Table.pkIdx) stores
// locators that name a (partition, slot) of this structure directly.
// That works because a slot never moves once assigned — deletes
// tombstone, inserts reuse a free slot or append, nothing compacts — and
// because no writer touches a partition while a reader holds a pin.
type Partition struct {
	schema    *storage.Schema
	tupleSize int

	// data holds slot i at [i*tupleSize, (i+1)*tupleSize).
	data []byte
	// rowIDs annotates each slot with its tuple's RowID; 0 marks an
	// empty slot (a tombstone the scan processor skips, paper §5 step 3).
	rowIDs []uint64
	// free lists reusable slots (deleted tuples).
	free []int32
	// index maps RowID -> ridLoc(slot).
	index *flatIndex

	live int

	// zm holds the optional per-block min/max synopses (zonemap.go);
	// nil when zone maps are disabled.
	zm *zoneMap
}

// NewPartition creates an empty partition sized for capacityHint tuples.
func NewPartition(schema *storage.Schema, capacityHint int) *Partition {
	if capacityHint < 16 {
		capacityHint = 16
	}
	return &Partition{
		schema:    schema,
		tupleSize: schema.TupleSize(),
		data:      make([]byte, 0, capacityHint*schema.TupleSize()),
		rowIDs:    make([]uint64, 0, capacityHint),
		index:     newFlatIndex(capacityHint),
	}
}

// Insert places a tuple under rowID, reusing a free slot if possible
// (paper §5: "the tuple is inserted into the next free slot of the
// partition, possibly at a location where a tuple was recently
// deleted"). Inserting an already-present RowID is a replica-divergence
// bug and returns an error.
func (p *Partition) Insert(rowID uint64, tuple []byte) error {
	_, err := p.insert(rowID, tuple)
	return err
}

// insert is Insert handing back the slot the tuple landed in, which is
// what the table's PK index stores.
func (p *Partition) insert(rowID uint64, tuple []byte) (int32, error) {
	if rowID == 0 {
		// RowID 0 is the tombstone sentinel: a row stored under it would
		// be counted live and indexed yet invisible to every scan.
		return 0, fmt.Errorf("olap: insert of reserved RowID 0 in table %s", p.schema.Name)
	}
	if _, dup := p.Locate(rowID); dup {
		return 0, fmt.Errorf("olap: duplicate insert of RowID %d in table %s", rowID, p.schema.Name)
	}
	var slot int32
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
		copy(p.data[int(slot)*p.tupleSize:], tuple)
		p.rowIDs[slot] = rowID
	} else {
		slot = int32(len(p.rowIDs))
		p.data = append(p.data, tuple...)
		p.rowIDs = append(p.rowIDs, rowID)
	}
	p.index.put(rowID, ridLoc(slot))
	p.live++
	if p.zm != nil {
		p.zmInsert(slot)
	}
	return slot, nil
}

// Locate resolves a RowID to its slot through the hash index. Apply
// step 3 coalesces all field patches of one tuple behind a single
// lookup (the per-tuple "hash join" of paper Fig. 4).
func (p *Partition) Locate(rowID uint64) (int32, bool) {
	loc, ok := p.index.get(rowID)
	return int32(loc), ok
}

// PatchSlot applies one field patch to an already-located slot. The
// slot must hold a live tuple: patching a tombstoned or free-listed
// slot would silently corrupt whatever tuple later recycles it (and,
// with zone maps active, corrupt synopsis supports through a dead
// tuple's values), so it is rejected.
func (p *Partition) PatchSlot(slot int32, offset uint32, data []byte) error {
	if slot < 0 || int(slot) >= len(p.rowIDs) || p.rowIDs[slot] == 0 {
		return fmt.Errorf("olap: patch of dead slot %d in table %s", slot, p.schema.Name)
	}
	if int(offset)+len(data) > p.tupleSize {
		return fmt.Errorf("olap: update beyond tuple bounds (table %s, offset %d, size %d)", p.schema.Name, offset, len(data))
	}
	if p.zm != nil && len(p.zm.actCols) > 0 {
		p.zmPatchSlot(slot, offset, data)
		return nil
	}
	copy(p.data[int(slot)*p.tupleSize+int(offset):], data)
	return nil
}

// UpdateField patches [offset, offset+len(data)) of the tuple with the
// given RowID in place (paper §5: updates are applied at the granularity
// of single attributes).
func (p *Partition) UpdateField(rowID uint64, offset uint32, data []byte) error {
	slot, ok := p.Locate(rowID)
	if !ok {
		return fmt.Errorf("olap: update of unknown RowID %d in table %s", rowID, p.schema.Name)
	}
	return p.PatchSlot(slot, offset, data)
}

// Delete tombstones the tuple with the given RowID and recycles its
// slot.
func (p *Partition) Delete(rowID uint64) error {
	slot, ok := p.Locate(rowID)
	if !ok {
		return fmt.Errorf("olap: delete of unknown RowID %d in table %s", rowID, p.schema.Name)
	}
	p.deleteSlot(rowID, slot)
	return nil
}

// deleteSlot is Delete for a row the caller has located already.
func (p *Partition) deleteSlot(rowID uint64, slot int32) {
	p.index.del(rowID, ridLoc(slot))
	p.rowIDs[slot] = 0
	p.free = append(p.free, slot)
	p.live--
	if p.zm != nil {
		p.zmDelete(slot)
	}
}

// Live returns the number of live tuples.
func (p *Partition) Live() int { return p.live }

// Slots returns the number of allocated slots (live + tombstoned).
func (p *Partition) Slots() int { return len(p.rowIDs) }

// Scan visits every live tuple. The callback receives the RowID and the
// tuple bytes (aliasing partition storage — do not retain). Returning
// false stops the scan.
func (p *Partition) Scan(fn func(rowID uint64, tuple []byte) bool) {
	ts := p.tupleSize
	for i, rid := range p.rowIDs {
		if rid == 0 {
			continue // tombstone
		}
		if !fn(rid, p.data[i*ts:(i+1)*ts]) {
			return
		}
	}
}

// ScanRange visits every live tuple in the slot range [lo, hi),
// clamped to the allocated slots. It is the unit of morsel-driven scan
// dispatch: the executor splits each partition's slot space into
// fixed-size ranges and hands them to a worker pool, so scan
// parallelism is bounded by workers rather than by partition count or
// skew. The callback contract matches Scan.
func (p *Partition) ScanRange(lo, hi int, fn func(rowID uint64, tuple []byte) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(p.rowIDs) {
		hi = len(p.rowIDs)
	}
	ts := p.tupleSize
	for i := lo; i < hi; i++ {
		rid := p.rowIDs[i]
		if rid == 0 {
			continue // tombstone
		}
		if !fn(rid, p.data[i*ts:(i+1)*ts]) {
			return
		}
	}
}

// LiveSlots is the vector form of the scan: it fills out with the slot
// numbers of live tuples in [from, hi) — hi clamped to the allocated
// slots — in slot order, and returns how many it wrote and the slot to
// resume from (hi once the range is exhausted, so callers loop while
// next < hi). The executor takes a morsel a vector at a time: one call
// per vector, then tight loops over out with Tuple — no callback per
// tuple.
func (p *Partition) LiveSlots(hi, from int, out []int32) (n, next int) {
	end := min(hi, len(p.rowIDs))
	i := max(from, 0)
	for ; i < end && n < len(out); i++ {
		if p.rowIDs[i] != 0 {
			out[n] = int32(i)
			n++
		}
	}
	if i >= end {
		return n, hi
	}
	return n, i
}

// Get returns the tuple bytes for rowID (aliasing partition storage).
func (p *Partition) Get(rowID uint64) ([]byte, bool) {
	slot, ok := p.Locate(rowID)
	if !ok {
		return nil, false
	}
	return p.Tuple(slot), true
}

// Tuple returns the bytes of an allocated slot (aliasing partition
// storage — do not retain). data may have regrown since the slot was
// assigned, so the slice is taken at read time.
func (p *Partition) Tuple(slot int32) []byte {
	off := int(slot) * p.tupleSize
	return p.data[off : off+p.tupleSize]
}
