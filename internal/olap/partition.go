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
// Data is horizontally soft-partitioned by a hash of each row's packed
// primary key, which both spreads scan work and lets updates be applied
// to all partitions in parallel (paper Fig. 4). The paper addresses rows
// by a hidden row identifier because a primary key may be wide; here
// every key is a unique, immutable uint64, so the key itself is the row
// identity on the wire and in the replica.
package olap

import (
	"encoding/binary"
	"fmt"

	"batchdb/internal/storage"
)

// Partition is one horizontal slice of a replicated table: fixed-width
// tuple slots, a free list of deleted slots, and a hash index from
// primary key to slot.
//
// The paper implements its replica-side hash indexes as
// cacheline-sized-bucket tables probed without locks [10], and so is the
// one index here (flatIndex, flatindex.go): flat open-addressed arrays of
// 16-byte entries, read without a lock. Apply step 3 — the hash join of
// a round's updates against the replica — writes it, one goroutine per
// partition; query probes (Table.FindPK) read it. A located slot stays
// valid while its row lives: a slot never moves — deletes tombstone,
// inserts reuse a free slot or append, nothing compacts — and no writer
// touches a partition while a reader holds a pin.
type Partition struct {
	schema    *storage.Schema
	tupleSize int

	// data holds slot i at [i*tupleSize, (i+1)*tupleSize).
	data []byte
	// alive flags the slots that hold a live tuple; a false slot is a
	// tombstone the scan processor skips (paper §5 step 3).
	alive []bool
	// free lists reusable slots (deleted tuples).
	free []int32
	// index maps primary key -> slot. It is held by value, so a probe
	// reaches the shard array straight from the partition.
	index flatIndex

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
		alive:     make([]bool, 0, capacityHint),
		index:     newFlatIndex(capacityHint),
	}
}

// Insert places a tuple under its primary key, reusing a free slot if
// possible (paper §5: "the tuple is inserted into the next free slot of
// the partition, possibly at a location where a tuple was recently
// deleted"). A second live row with the same key is a replica-divergence
// bug and returns an error, and so is a tuple of the wrong width.
func (p *Partition) Insert(key uint64, tuple []byte) error {
	if len(tuple) != p.tupleSize {
		return fmt.Errorf("olap: insert of a %d-byte tuple in table %s of %d-byte tuples", len(tuple), p.schema.Name, p.tupleSize)
	}
	if _, dup := p.Locate(key); dup {
		return fmt.Errorf("olap: duplicate insert of key %d in table %s", key, p.schema.Name)
	}
	var slot int32
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
		copy(p.data[int(slot)*p.tupleSize:], tuple)
		p.alive[slot] = true
	} else {
		slot = int32(len(p.alive))
		p.data = append(p.data, tuple...)
		p.alive = append(p.alive, true)
	}
	p.index.put(key, slot)
	p.live++
	if p.zm != nil {
		p.zmInsert(slot)
	}
	return nil
}

// Locate resolves a primary key to its slot through the hash index.
// Apply step 3 coalesces all field patches of one tuple behind a single
// lookup (the per-tuple "hash join" of paper Fig. 4).
func (p *Partition) Locate(key uint64) (int32, bool) {
	loc, ok := p.index.get(key)
	return int32(loc) - 1, ok
}

// PatchSlot applies one field patch to an already-located slot. The
// slot must hold a live tuple: patching a tombstoned or free-listed
// slot would silently corrupt whatever tuple later recycles it (and,
// with zone maps active, corrupt synopsis supports through a dead
// tuple's values), so it is rejected.
func (p *Partition) PatchSlot(slot int32, offset uint32, data []byte) error {
	if slot < 0 || int(slot) >= len(p.alive) || !p.alive[slot] {
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

// Delete tombstones the tuple with the given key and recycles its slot.
func (p *Partition) Delete(key uint64) error {
	slot, ok := p.Locate(key)
	if !ok {
		return fmt.Errorf("olap: delete of unknown key %d in table %s", key, p.schema.Name)
	}
	p.index.del(key)
	p.alive[slot] = false
	p.free = append(p.free, slot)
	p.live--
	if p.zm != nil {
		p.zmDelete(slot)
	}
	return nil
}

// Live returns the number of live tuples.
func (p *Partition) Live() int { return p.live }

// Slots returns the number of allocated slots (live + tombstoned).
func (p *Partition) Slots() int { return len(p.alive) }

// LiveSlots is the vector form of the scan: it fills out with the slot
// numbers of live tuples in [from, hi) — hi clamped to the allocated
// slots — in slot order, and returns how many it wrote and the slot to
// resume from (hi once the range is exhausted, so callers loop while
// next < hi). The executor takes a morsel a vector at a time: one call
// per vector, then tight loops over out with Tuple — no callback per
// tuple.
func (p *Partition) LiveSlots(hi, from int, out []int32) (n, next int) {
	end := min(hi, len(p.alive))
	i := max(from, 0)
	for ; i < end && n < len(out); i++ {
		if p.alive[i] {
			out[n] = int32(i)
			n++
		}
	}
	if i >= end {
		return n, hi
	}
	return n, i
}

// ReadCol is the column read of the vector form: for each slot of slots
// it loads the size-byte (4 or 8) little-endian field at byte offset off
// of the slot's tuple into out, zero-extended — one column of a vector
// in a call-free loop, the load the executor's kernels start from.
func (p *Partition) ReadCol(slots []int32, off, size int, out []uint64) {
	ts, data := p.tupleSize, p.data
	if size == 4 {
		for i, s := range slots {
			out[i] = uint64(binary.LittleEndian.Uint32(data[int(s)*ts+off:]))
		}
		return
	}
	for i, s := range slots {
		out[i] = binary.LittleEndian.Uint64(data[int(s)*ts+off:])
	}
}

// Tuple returns the bytes of an allocated slot (aliasing partition
// storage — do not retain). data may have regrown since the slot was
// assigned, so the slice is taken at read time.
func (p *Partition) Tuple(slot int32) []byte {
	off := int(slot) * p.tupleSize
	return p.data[off : off+p.tupleSize]
}
