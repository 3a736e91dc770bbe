package olap

// Regression tests for the RowID-0 tombstone sentinel and stale-slot
// patches. rowIDs[slot] == 0 is how every partition marks a dead slot,
// so a row stored under RowID 0 would be live-counted and indexed yet
// invisible to every scan, and a patch through a slot handle captured
// before a delete would corrupt whatever row recycles the slot. All
// four entry points — partition insert, replica load, reload load, and
// slot patches — must reject these.

import (
	"testing"
)

func TestInsertReservedRowID(t *testing.T) {
	s := kvSchema()
	p := NewPartition(s, 4)
	if err := p.Insert(0, tuple(s, 1, 1)); err == nil {
		t.Fatal("insert of reserved RowID 0 accepted")
	}
	if p.Live() != 0 || p.Slots() != 0 {
		t.Fatalf("rejected insert left state: Live=%d Slots=%d", p.Live(), p.Slots())
	}
}

func TestReplicaLoadTupleReservedRowID(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	r.CreateTable(s, col0Key(s), 16)
	if err := r.LoadTuple(1, 0, tuple(s, 1, 1)); err == nil {
		t.Fatal("load of reserved RowID 0 accepted")
	}
	if r.Table(1).Live() != 0 {
		t.Fatal("rejected load left a live row")
	}
}

func TestReloadLoadTupleReservedRowID(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	r.CreateTable(s, col0Key(s), 16)
	rl := r.NewReload()
	if err := rl.LoadTuple(1, 0, tuple(s, 1, 1)); err == nil {
		t.Fatal("reload of reserved RowID 0 accepted")
	}
	if rl.Rows() != 0 {
		t.Fatalf("rejected reload staged %d rows", rl.Rows())
	}
}

func TestPatchDeadSlotRejected(t *testing.T) {
	s := kvSchema()
	p := NewPartition(s, 4)
	if err := p.Insert(1, tuple(s, 1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(2, tuple(s, 2, 20)); err != nil {
		t.Fatal(err)
	}
	slot, ok := p.Locate(1)
	if !ok {
		t.Fatal("Locate(1) failed")
	}
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	// The stale handle addresses a tombstoned (soon recycled) slot.
	if err := p.PatchSlot(slot, uint32(s.Offset(1)), u64le(999)); err == nil {
		t.Fatal("patch of tombstoned slot accepted")
	}
	if err := p.PatchSlot(-1, 0, []byte{1}); err == nil {
		t.Fatal("negative-slot patch accepted")
	}
	if err := p.PatchSlot(int32(p.Slots()), 0, []byte{1}); err == nil {
		t.Fatal("beyond-slots patch accepted")
	}
	// After recycling, row 3 owns the slot; the guard is what kept the
	// rejected patch from rewriting it.
	if err := p.Insert(3, tuple(s, 3, 30)); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Locate(3); got != slot {
		t.Fatalf("recycled slot %d, want %d", got, slot)
	}
	tup, _ := p.Get(3)
	if s.GetInt64(tup, 1) != 30 {
		t.Fatalf("recycled row value %d, want 30", s.GetInt64(tup, 1))
	}
}
