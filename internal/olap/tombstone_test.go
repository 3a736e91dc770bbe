package olap

// Row identity and tombstones. A row is identified by its packed primary
// key, and a slot's live flag — not a reserved key value — marks it
// dead, so key 0 is a row like any other. A patch through a slot handle
// captured before a delete would corrupt whatever row recycles the slot,
// so slot patches check the flag.

import (
	"strings"
	"testing"

	"batchdb/internal/proplog"
)

// RowID 0 was once reserved as the dead-slot marker, so every entry point
// refused it. Now a row's identity is its packed primary key and key 0
// is a valid one; the next three tests pin that each entry point — a
// partition insert, a replica load and a reload load — stores a row
// keyed 0 where a probe and a scan find it.

func TestInsertReservedRowID(t *testing.T) {
	s := kvSchema()
	p := NewPartition(s, 4)
	if err := p.Insert(0, tuple(s, 0, 7)); err != nil {
		t.Fatalf("insert of key 0: %v", err)
	}
	if p.Live() != 1 || p.Slots() != 1 {
		t.Fatalf("after insert of key 0: Live=%d Slots=%d, want 1 and 1", p.Live(), p.Slots())
	}
	if tup, ok := p.Get(0); !ok || s.GetInt64(tup, 1) != 7 {
		t.Fatalf("Get(0) = %v,%v; want v=7", tup, ok)
	}
	if slots := liveSlots(p); len(slots) != 1 || s.GetInt64(p.Tuple(slots[0]), 0) != 0 {
		t.Fatalf("the scan sees live slots %v, want key 0's one slot", slots)
	}
	if err := p.Delete(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Locate(0); ok || p.Live() != 0 || len(liveSlots(p)) != 0 {
		t.Fatalf("deleted key 0 still seen: Live=%d", p.Live())
	}
}

func TestReplicaLoadTupleReservedRowID(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	tbl := r.CreateTable(s, 16)
	if err := r.LoadTuple(1, 0, tuple(s, 0, 7)); err != nil {
		t.Fatalf("load of key 0: %v", err)
	}
	if tbl.Live() != 1 {
		t.Fatalf("after load of key 0: %d live rows, want 1", tbl.Live())
	}
	if tup, ok := tbl.GetByPK(0); !ok || s.GetInt64(tup, 1) != 7 {
		t.Fatalf("GetByPK(0) = %v,%v; want v=7", tup, ok)
	}
}

func TestReloadLoadTupleReservedRowID(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	tbl := r.CreateTable(s, 16)
	rl := r.NewReload()
	if err := rl.LoadTuple(1, 0, tuple(s, 0, 7)); err != nil {
		t.Fatalf("reload of key 0: %v", err)
	}
	if rl.Rows() != 1 {
		t.Fatalf("reload staged %d rows, want 1", rl.Rows())
	}
	r.InstallReload(rl, 1)
	if _, err := r.ApplyPending(1); err != nil {
		t.Fatal(err)
	}
	if tup, ok := tbl.GetByPK(0); !ok || s.GetInt64(tup, 1) != 7 || tbl.Live() != 1 {
		t.Fatalf("after the reload GetByPK(0) = %v,%v with %d live rows; want v=7, 1 row", tup, ok, tbl.Live())
	}
}

// TestKeyZeroIsAnOrdinaryRow takes a row keyed 0 through every path a
// row takes: loaded, probed, scanned, patched, deleted and re-inserted
// by apply rounds, and replaced by a resync reload.
func TestKeyZeroIsAnOrdinaryRow(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	tbl := r.CreateTable(s, 16)
	for k := int64(0); k < 4; k++ {
		if err := r.LoadTuple(1, uint64(k), tuple(s, k, 10+k)); err != nil {
			t.Fatal(err)
		}
	}
	// want checks what a probe and a scan see of key 0: v, or no row
	// when v < 0.
	want := func(stage string, v int64) {
		t.Helper()
		tup, ok := tbl.GetByPK(0)
		base := make([]uint32, len(tbl.Partitions))
		for pi := 1; pi < len(base); pi++ {
			base[pi] = base[pi-1] + uint32(tbl.Partitions[pi-1].Slots())
		}
		ids := make([]uint32, 1)
		tbl.FindPKs([]uint64{0}, base, ids)
		scanned := 0
		for _, p := range tbl.Partitions {
			for _, slot := range liveSlots(p) {
				if tup := p.Tuple(slot); s.GetInt64(tup, 0) == 0 {
					scanned++
					if s.GetInt64(tup, 1) != v {
						t.Fatalf("%s: the scan sees key 0 with v=%d, want %d", stage, s.GetInt64(tup, 1), v)
					}
				}
			}
		}
		if v < 0 {
			if ok || ids[0] != 0 || scanned != 0 {
				t.Fatalf("%s: deleted key 0 still seen (probe %v, vector probe id %d, scanned %d)", stage, ok, ids[0], scanned)
			}
			return
		}
		if !ok || s.GetInt64(tup, 1) != v || ids[0] == 0 || scanned != 1 {
			t.Fatalf("%s: key 0 = %v,%v (vector probe id %d, scanned %d), want v=%d", stage, tup, ok, ids[0], scanned, v)
		}
	}
	want("loaded", 10)
	for _, step := range []struct {
		stage string
		e     proplog.Entry
		v     int64
		live  int
	}{
		{"patched", mkEntry(1, proplog.Update, 0, uint32(s.Offset(1)), u64le(20)), 20, 4},
		{"deleted", mkEntry(2, proplog.Delete, 0, 0, nil), -1, 3},
		{"re-inserted", mkEntry(3, proplog.Insert, 0, 0, tuple(s, 0, 30)), 30, 4},
	} {
		r.ApplyUpdates([]proplog.Batch{{Tables: []proplog.TableBatch{{Table: 1, Entries: []proplog.Entry{step.e}}}}}, step.e.VID)
		if _, err := r.ApplyPending(step.e.VID); err != nil {
			t.Fatalf("%s: %v", step.stage, err)
		}
		want(step.stage, step.v)
		if tbl.Live() != step.live {
			t.Fatalf("%s: %d live rows, want %d", step.stage, tbl.Live(), step.live)
		}
	}
	rl := r.NewReload()
	for k := int64(0); k < 2; k++ {
		if err := rl.LoadTuple(1, uint64(k), tuple(s, k, 40+k)); err != nil {
			t.Fatal(err)
		}
	}
	r.InstallReload(rl, 4)
	if _, err := r.ApplyPending(4); err != nil {
		t.Fatal(err)
	}
	want("reloaded", 40)
	if tbl.Live() != 2 {
		t.Fatalf("reloaded: %d live rows, want 2", tbl.Live())
	}
}

// TestDuplicateKeyRejected: a second live row under one key is replica
// divergence. A load of it fails, and an apply round that inserts it
// fails and names the table.
func TestDuplicateKeyRejected(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	r.CreateTable(s, 16)
	if err := r.LoadTuple(1, 5, tuple(s, 5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadTuple(1, 5, tuple(s, 5, 2)); err == nil {
		t.Fatal("a second load of key 5 was accepted")
	}
	r.ApplyUpdates([]proplog.Batch{{Tables: []proplog.TableBatch{{Table: 1, Entries: []proplog.Entry{
		mkEntry(1, proplog.Insert, 5, 0, tuple(s, 5, 3)),
	}}}}}, 1)
	_, err := r.ApplyPending(1)
	if err == nil || !strings.Contains(err.Error(), "table kv") || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("a second live insert of key 5: err = %v, want a duplicate error naming table kv", err)
	}
	if tup, ok := r.Table(1).GetByPK(5); !ok || s.GetInt64(tup, 1) != 1 {
		t.Fatalf("key 5 = %v,%v after the rejected insert, want the loaded row", tup, ok)
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
