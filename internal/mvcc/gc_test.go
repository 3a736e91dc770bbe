package mvcc

import (
	"testing"

	"batchdb/internal/storage"
)

// Secondary-index entries for deleted rows and for superseded key
// values must be pruned by GC, keeping range scans from degrading — the
// regression behind TPC-C Delivery slowing down as delivered new_order
// entries accumulated.
func TestGCPrunesSecondaryIndex(t *testing.T) {
	s := NewStore()
	schema := storage.NewSchema(1, "q", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "grp", Type: storage.Int64},
	}, []int{0})
	tbl := s.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 64)
	byGrp := tbl.AddSecondary(func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 1))<<32 | uint64(schema.GetInt64(tup, 0))
	})

	tx := s.Begin()
	for i := int64(1); i <= 100; i++ {
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, i)
		schema.PutInt64(tup, 1, 1)
		if err := tx.Insert(tbl, tup); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, tx)

	// Delete 80 rows, move 10 to another group.
	for i := int64(1); i <= 80; i++ {
		tx := s.Begin()
		if err := tx.Delete(tbl, uint64(i)); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}
	for i := int64(81); i <= 90; i++ {
		tx := s.Begin()
		if err := tx.Update(tbl, uint64(i), []int{1}, func(tup []byte) {
			schema.PutInt64(tup, 1, 2)
		}); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}

	countEntries := func() int {
		n := 0
		for it := byGrp.Seek(0); it.Valid(); it.Next() {
			n++
		}
		return n
	}
	// 100 original + 10 new-group entries before GC.
	if got := countEntries(); got != 110 {
		t.Fatalf("entries before GC = %d, want 110", got)
	}
	st := s.CollectGarbage()
	// After GC: 20 live rows, 10 of them re-grouped (old entries pruned)
	// = exactly 20 entries.
	if got := countEntries(); got != 20 {
		t.Fatalf("entries after GC = %d, want 20 (stats %+v)", got, st)
	}
	if st.IndexEntriesRemoved != 90 {
		t.Fatalf("IndexEntriesRemoved = %d, want 90", st.IndexEntriesRemoved)
	}
	// Remaining entries resolve to live, matching rows.
	ro := s.BeginRO()
	defer ro.Release()
	for it := byGrp.Seek(0); it.Valid(); it.Next() {
		rec := ro.ReadChain(it.Value())
		if rec == nil {
			t.Fatal("pruned index still holds dead entry")
		}
		if byGrp.KeyFn(rec.Data) != it.Key() {
			t.Fatal("pruned index holds mismatched entry")
		}
	}
}

// GC while a long snapshot is pinned must keep exactly the versions the
// snapshot can see and prune the rest once it releases.
func TestGCHorizonBoundaries(t *testing.T) {
	s, tbl := testTable(t)
	tx := s.Begin()
	mustInsert(t, tx, tbl, 1, 1)
	commit(t, tx) // VID 1

	pinned := s.BeginRO() // snapshot 1
	for v := int64(2); v <= 10; v++ {
		tx := s.Begin()
		if err := tx.Update(tbl, 1, []int{1}, func(tup []byte) {
			tbl.Schema.PutInt64(tup, 1, v)
		}); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}
	s.CollectGarbage()
	// Versions 1 (pinned) and 10 (current) must survive; at least those.
	if n := chainLen(tbl.getChain(1)); n < 2 {
		t.Fatalf("chain over-pruned under pinned snapshot: len=%d", n)
	}
	if v, ok := getValNT(pinned, tbl, 1); !ok || v != 1 {
		t.Fatalf("pinned snapshot reads %d,%v", v, ok)
	}
	pinned.Release()
	s.CollectGarbage()
	if n := chainLen(tbl.getChain(1)); n != 1 {
		t.Fatalf("chain after release = %d, want 1", n)
	}
}
