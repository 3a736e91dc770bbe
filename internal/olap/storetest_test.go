package olap

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"batchdb/internal/storage"
)

// TestStoreConformance runs the partition conformance suite against the
// row partition in every storage configuration, bare and zone-mapped,
// pinning both to one contract. The contract: key 0 is an ordinary key,
// duplicate inserts and patches to dead slots are rejected, deletes
// recycle slots without growing the slot space, and scans skip
// tombstones. Extend the suite when extending that surface.
func TestStoreConformance(t *testing.T) {
	configs := []struct {
		name string
		mk   func() *Partition
	}{
		{"Bare", func() *Partition {
			return NewPartition(conformanceSchema(), 16)
		}},
		{"ZoneMapped", func() *Partition {
			p := NewPartition(conformanceSchema(), 16)
			p.EnableZoneMap(64)
			p.ActivateSynopsisCols(^uint64(0))
			return p
		}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			t.Run("Directed", func(t *testing.T) { conformanceDirected(t, c.mk()) })
			t.Run("Randomized", func(t *testing.T) { conformanceRandomized(t, c.mk()) })
		})
	}
}

// conformanceSchema is the relation the suite drives partitions with: a
// mix of every numeric type plus a string column, so field patches cross
// both synopsis and non-synopsis byte ranges.
func conformanceSchema() *storage.Schema {
	return storage.NewSchema(990, "storetest", []storage.Column{
		{Name: "id", Type: storage.Int64},
		{Name: "a", Type: storage.Int32},
		{Name: "b", Type: storage.Float64},
		{Name: "s", Type: storage.String, Size: 8},
		{Name: "c", Type: storage.Int64},
	}, []int{0})
}

func conformanceTuple(s *storage.Schema, id int64, a int32, b float64, c int64) []byte {
	tup := s.NewTuple()
	s.PutInt64(tup, 0, id)
	s.PutInt32(tup, 1, a)
	s.PutFloat64(tup, 2, b)
	copy(tup[s.Offset(3):], "str")
	s.PutInt64(tup, 4, c)
	return tup
}

// conformanceDirected checks the explicit error contract: no reserved key,
// duplicates, dead-slot patches, bounds, unknown rows, and slot
// recycling.
func conformanceDirected(t *testing.T, p *Partition) {
	s := conformanceSchema()
	// Key 0 is a row like any other; deleting it frees slot 0 for key 1.
	if err := p.Insert(0, conformanceTuple(s, 0, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(1, conformanceTuple(s, 1, 10, 1.5, 100)); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(1, conformanceTuple(s, 1, 11, 1.5, 100)); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if err := p.Insert(2, conformanceTuple(s, 2, 20, 2.5, 200)); err != nil {
		t.Fatal(err)
	}

	// Patch path: a located slot accepts patches while live.
	slot, ok := p.Locate(1)
	if !ok {
		t.Fatal("Locate(1) failed")
	}
	patch := make([]byte, s.ColSize(4))
	binary.LittleEndian.PutUint64(patch, 101)
	if err := p.PatchSlot(slot, uint32(s.Offset(4)), patch); err != nil {
		t.Fatal(err)
	}
	if tup, ok := p.Get(1); !ok || s.GetInt64(tup, 4) != 101 {
		t.Fatalf("patched value not visible: %v %v", tup, ok)
	}
	if err := p.PatchSlot(slot, uint32(s.TupleSize()), []byte{1}); err == nil {
		t.Fatal("out-of-bounds patch accepted")
	}
	if err := p.PatchSlot(-1, 0, []byte{1}); err == nil {
		t.Fatal("negative-slot patch accepted")
	}
	if err := p.PatchSlot(int32(p.Slots()), 0, []byte{1}); err == nil {
		t.Fatal("beyond-slots patch accepted")
	}
	if _, ok := p.Locate(99); ok {
		t.Fatal("unknown row located")
	}
	if err := p.Delete(99); err == nil {
		t.Fatal("delete of unknown row accepted")
	}

	// Delete, then patch the stale slot handle: the slot is dead (and
	// may be recycled by a future insert), so the patch must be refused
	// instead of silently corrupting whatever lives there next.
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := p.PatchSlot(slot, uint32(s.Offset(4)), patch); err == nil {
		t.Fatal("patch of tombstoned slot accepted")
	}
	if p.Live() != 1 || p.Slots() != 2 {
		t.Fatalf("Live=%d Slots=%d after delete", p.Live(), p.Slots())
	}
	for _, sl := range liveSlots(p) {
		if s.GetInt64(p.Tuple(sl), 0) == 1 {
			t.Fatal("tombstoned row visible in scan")
		}
	}

	// Recycling: the freed slot is reused, the slot space does not grow,
	// and the stale handle now addresses the recycled tuple — patching
	// through it would hit row 3, which is why the dead-slot guard above
	// is load-bearing.
	if err := p.Insert(3, conformanceTuple(s, 3, 30, 3.5, 300)); err != nil {
		t.Fatal(err)
	}
	if p.Slots() != 2 {
		t.Fatalf("Slots=%d after recycling insert, want 2", p.Slots())
	}
	if got, _ := p.Locate(3); got != slot {
		t.Fatalf("recycled slot %d, want %d", got, slot)
	}
}

// conformanceRandomized drives the store with a random op mix against a model map
// and checks full-state equivalence after every burst.
func conformanceRandomized(t *testing.T, p *Partition) {
	s := conformanceSchema()
	rng := rand.New(rand.NewSource(7))
	model := make(map[uint64][]byte)
	var live []uint64
	nextRow := uint64(1)

	check := func() {
		t.Helper()
		if p.Live() != len(model) {
			t.Fatalf("Live=%d, model has %d", p.Live(), len(model))
		}
		for rid, want := range model {
			slot, ok := p.Locate(rid)
			if !ok {
				t.Fatalf("row %d not located", rid)
			}
			if tup := p.Tuple(slot); string(tup) != string(want) {
				t.Fatalf("row %d: slot %d holds %x, model %x", rid, slot, tup, want)
			}
		}
		if seen := len(liveSlots(p)); seen != len(model) {
			t.Fatalf("scan saw %d rows, model has %d", seen, len(model))
		}
		// Ranged scans cover the same rows, whatever the cut.
		step := 1 + rng.Intn(p.Slots()+1)
		ranged := 0
		out := make([]int32, 16)
		for lo := 0; lo < p.Slots(); lo += step {
			for from := lo; from < lo+step; {
				var n int
				n, from = p.LiveSlots(lo+step, from, out)
				ranged += n
			}
		}
		if ranged != len(model) {
			t.Fatalf("ranged scan saw %d rows, model has %d", ranged, len(model))
		}
	}

	for burst := 0; burst < 20; burst++ {
		for op := 0; op < 50; op++ {
			switch k := rng.Intn(10); {
			case k < 5 || len(live) == 0: // insert
				tup := conformanceTuple(s, int64(nextRow), int32(rng.Intn(100)),
					float64(rng.Intn(100))/4, int64(rng.Intn(1000)))
				if err := p.Insert(nextRow, tup); err != nil {
					t.Fatal(err)
				}
				model[nextRow] = append([]byte(nil), tup...)
				live = append(live, nextRow)
				nextRow++
			case k < 8: // patch one random column through PatchSlot
				rid := live[rng.Intn(len(live))]
				col := rng.Intn(len(s.Columns))
				patch := make([]byte, s.ColSize(col))
				rng.Read(patch)
				slot, _ := p.Locate(rid)
				if err := p.PatchSlot(slot, uint32(s.Offset(col)), patch); err != nil {
					t.Fatal(err)
				}
				copy(model[rid][s.Offset(col):], patch)
			default: // delete
				i := rng.Intn(len(live))
				rid := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := p.Delete(rid); err != nil {
					t.Fatal(err)
				}
				delete(model, rid)
			}
		}
		check()
	}
}
