package mvcc

import (
	"errors"
	"testing"

	"batchdb/internal/storage"
)

// testTable returns a store with one two-column table: key (int64) and
// val (int64).
func testTable(t *testing.T) (*Store, *Table) {
	t.Helper()
	s := NewStore()
	schema := storage.NewSchema(1, "kv", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
	}, []int{0})
	tbl := s.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 64)
	return s, tbl
}

func mustInsert(t *testing.T, tx *Txn, tbl *Table, k, v int64) {
	t.Helper()
	tup := tbl.Schema.NewTuple()
	tbl.Schema.PutInt64(tup, 0, k)
	tbl.Schema.PutInt64(tup, 1, v)
	if err := tx.Insert(tbl, tup); err != nil {
		t.Fatalf("Insert(%d,%d): %v", k, v, err)
	}
}

func getVal(tx *Txn, tbl *Table, k int64) (int64, bool) {
	tup, ok := tx.Get(tbl, uint64(k))
	if !ok {
		return 0, false
	}
	return tbl.Schema.GetInt64(tup, 1), true
}

func commit(t *testing.T, tx *Txn) uint64 {
	t.Helper()
	cv, err := tx.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return cv
}

func TestInsertCommitRead(t *testing.T) {
	s, tbl := testTable(t)
	tx := s.Begin()
	mustInsert(t, tx, tbl, 1, 100)
	// Own write visible before commit.
	if v, ok := getVal(tx, tbl, 1); !ok || v != 100 {
		t.Fatalf("own write invisible: %d,%v", v, ok)
	}
	// Invisible to a concurrent snapshot.
	ro := s.BeginRO()
	if _, ok := getVal(ro, tbl, 1); ok {
		t.Fatal("uncommitted insert visible to other txn")
	}
	ro.Release()
	commit(t, tx)
	ro2 := s.BeginRO()
	defer ro2.Release()
	if v, ok := getVal(ro2, tbl, 1); !ok || v != 100 {
		t.Fatalf("committed insert not visible: %d,%v", v, ok)
	}
}

func TestSnapshotStability(t *testing.T) {
	s, tbl := testTable(t)
	tx := s.Begin()
	mustInsert(t, tx, tbl, 1, 1)
	commit(t, tx)

	ro := s.BeginRO() // snapshot before the update
	tx2 := s.Begin()
	if err := tx2.Update(tbl, 1, []int{1}, func(tup []byte) {
		tbl.Schema.PutInt64(tup, 1, 2)
	}); err != nil {
		t.Fatal(err)
	}
	commit(t, tx2)

	// Old snapshot still sees old value.
	if v, _ := getVal(ro, tbl, 1); v != 1 {
		t.Fatalf("old snapshot sees %d, want 1", v)
	}
	ro.Release()
	ro2 := s.BeginRO()
	defer ro2.Release()
	if v, _ := getVal(ro2, tbl, 1); v != 2 {
		t.Fatalf("new snapshot sees %d, want 2", v)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	s, tbl := testTable(t)
	tx := s.Begin()
	mustInsert(t, tx, tbl, 1, 1)
	commit(t, tx)

	a := s.Begin()
	b := s.Begin()
	if err := a.Update(tbl, 1, nil, func(tup []byte) { tbl.Schema.PutInt64(tup, 1, 10) }); err != nil {
		t.Fatal(err)
	}
	// First writer wins: b must get a conflict.
	err := b.Update(tbl, 1, nil, func(tup []byte) { tbl.Schema.PutInt64(tup, 1, 20) })
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("second writer got %v, want ErrConflict", err)
	}
	b.Abort()
	commit(t, a)
	ro := s.BeginRO()
	defer ro.Release()
	if v, _ := getVal(ro, tbl, 1); v != 10 {
		t.Fatalf("value = %d, want 10", v)
	}
}

func TestConflictAfterSnapshot(t *testing.T) {
	s, tbl := testTable(t)
	tx := s.Begin()
	mustInsert(t, tx, tbl, 1, 1)
	commit(t, tx)

	b := s.Begin() // snapshot now
	a := s.Begin()
	if err := a.Update(tbl, 1, nil, func(tup []byte) { tbl.Schema.PutInt64(tup, 1, 10) }); err != nil {
		t.Fatal(err)
	}
	commit(t, a) // committed after b's snapshot
	err := b.Update(tbl, 1, nil, func(tup []byte) { tbl.Schema.PutInt64(tup, 1, 20) })
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale writer got %v, want ErrConflict", err)
	}
	b.Abort()
}

func TestAbortRollsBack(t *testing.T) {
	s, tbl := testTable(t)
	tx := s.Begin()
	mustInsert(t, tx, tbl, 1, 1)
	commit(t, tx)

	a := s.Begin()
	if err := a.Update(tbl, 1, nil, func(tup []byte) { tbl.Schema.PutInt64(tup, 1, 99) }); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, a, tbl, 2, 2)
	if err := a.Delete(tbl, 1); err != nil {
		// Delete of a row we updated: converts the op.
		t.Fatal(err)
	}
	a.Abort()

	ro := s.BeginRO()
	defer ro.Release()
	if v, ok := getVal(ro, tbl, 1); !ok || v != 1 {
		t.Fatalf("after abort row1 = %d,%v; want 1,true", v, ok)
	}
	if _, ok := getVal(ro, tbl, 2); ok {
		t.Fatal("aborted insert visible")
	}
	// Row must be writable again (lock released).
	b := s.Begin()
	if err := b.Update(tbl, 1, nil, func(tup []byte) { tbl.Schema.PutInt64(tup, 1, 5) }); err != nil {
		t.Fatalf("update after abort: %v", err)
	}
	commit(t, b)
}

func TestDeleteAndReinsert(t *testing.T) {
	s, tbl := testTable(t)
	tx := s.Begin()
	mustInsert(t, tx, tbl, 1, 1)
	commit(t, tx)

	d := s.Begin()
	if err := d.Delete(tbl, 1); err != nil {
		t.Fatal(err)
	}
	commit(t, d)

	ro := s.BeginRO()
	if _, ok := getVal(ro, tbl, 1); ok {
		t.Fatal("deleted row visible")
	}
	ro.Release()

	i2 := s.Begin()
	mustInsert(t, i2, tbl, 1, 42)
	commit(t, i2)
	ro2 := s.BeginRO()
	defer ro2.Release()
	if v, ok := getVal(ro2, tbl, 1); !ok || v != 42 {
		t.Fatalf("re-inserted row = %d,%v", v, ok)
	}
}

func TestDuplicateInsert(t *testing.T) {
	s, tbl := testTable(t)
	tx := s.Begin()
	mustInsert(t, tx, tbl, 1, 1)
	commit(t, tx)
	tx2 := s.Begin()
	tup := tbl.Schema.NewTuple()
	tbl.Schema.PutInt64(tup, 0, 1)
	if err := tx2.Insert(tbl, tup); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate insert: %v", err)
	}
	tx2.Abort()
}

func TestUpdateMissing(t *testing.T) {
	s, tbl := testTable(t)
	tx := s.Begin()
	defer tx.Abort()
	if err := tx.Update(tbl, 7, nil, func([]byte) {}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if err := tx.Delete(tbl, 7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestOwnWriteSequences(t *testing.T) {
	s, tbl := testTable(t)

	// insert -> update -> commit: write set collapses to one insert.
	tx := s.Begin()
	mustInsert(t, tx, tbl, 1, 1)
	if err := tx.Update(tbl, 1, []int{1}, func(tup []byte) { tbl.Schema.PutInt64(tup, 1, 2) }); err != nil {
		t.Fatal(err)
	}
	if len(tx.Writes()) != 1 || tx.Writes()[0].Kind != OpInsert {
		t.Fatalf("write set = %+v", tx.Writes())
	}
	commit(t, tx)
	ro := s.BeginRO()
	if v, _ := getVal(ro, tbl, 1); v != 2 {
		t.Fatalf("insert+update = %d, want 2", v)
	}
	ro.Release()

	// update -> update merges changed columns.
	tx2 := s.Begin()
	if err := tx2.Update(tbl, 1, []int{1}, func(tup []byte) { tbl.Schema.PutInt64(tup, 1, 3) }); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Update(tbl, 1, []int{0}, func(tup []byte) {}); err != nil {
		t.Fatal(err)
	}
	if len(tx2.Writes()) != 1 || len(tx2.Writes()[0].Cols) != 2 {
		t.Fatalf("merged write set = %+v", tx2.Writes())
	}
	commit(t, tx2)

	// insert -> delete cancels out.
	tx3 := s.Begin()
	mustInsert(t, tx3, tbl, 9, 9)
	if err := tx3.Delete(tbl, 9); err != nil {
		t.Fatal(err)
	}
	if len(tx3.Writes()) != 0 {
		t.Fatalf("insert+delete write set = %+v", tx3.Writes())
	}
	commit(t, tx3)
	ro2 := s.BeginRO()
	defer ro2.Release()
	if _, ok := getVal(ro2, tbl, 9); ok {
		t.Fatal("cancelled insert visible")
	}

	// update -> delete becomes a delete.
	tx4 := s.Begin()
	if err := tx4.Update(tbl, 1, nil, func(tup []byte) { tbl.Schema.PutInt64(tup, 1, 77) }); err != nil {
		t.Fatal(err)
	}
	if err := tx4.Delete(tbl, 1); err != nil {
		t.Fatal(err)
	}
	if len(tx4.Writes()) != 1 || tx4.Writes()[0].Kind != OpDelete {
		t.Fatalf("update+delete write set = %+v", tx4.Writes())
	}
	commit(t, tx4)
	ro3 := s.BeginRO()
	defer ro3.Release()
	if _, ok := getVal(ro3, tbl, 1); ok {
		t.Fatal("deleted row visible after update+delete")
	}
}

func TestReadOnlyCannotWrite(t *testing.T) {
	s, tbl := testTable(t)
	ro := s.BeginRO()
	defer ro.Release()
	tup := tbl.Schema.NewTuple()
	if err := ro.Insert(tbl, tup); err == nil {
		t.Fatal("read-only insert succeeded")
	}
	if err := ro.Update(tbl, 1, nil, func([]byte) {}); err == nil {
		t.Fatal("read-only update succeeded")
	}
	if err := ro.Delete(tbl, 1); err == nil {
		t.Fatal("read-only delete succeeded")
	}
}

func TestSecondaryIndexScan(t *testing.T) {
	s := NewStore()
	schema := storage.NewSchema(1, "people", []storage.Column{
		{Name: "id", Type: storage.Int64},
		{Name: "age", Type: storage.Int64},
	}, []int{0})
	tbl := s.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 64)
	// Secondary on (age, id) — id bits uniquify.
	byAge := tbl.AddSecondary(func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 1))<<32 | uint64(schema.GetInt64(tup, 0))
	})

	tx := s.Begin()
	for i := int64(1); i <= 10; i++ {
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, i)
		schema.PutInt64(tup, 1, i%3) // ages 0,1,2
		if err := tx.Insert(tbl, tup); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, tx)

	ro := s.BeginRO()
	defer ro.Release()
	// All people with age == 1: ids 1,4,7,10.
	var ids []int64
	for it := byAge.Seek(1 << 32); it.Valid() && it.Key() < 2<<32; it.Next() {
		rec := ro.ReadChain(it.Value())
		if rec == nil {
			continue
		}
		if schema.GetInt64(rec.Data, 1) != 1 {
			continue // stale entry
		}
		ids = append(ids, schema.GetInt64(rec.Data, 0))
	}
	want := []int64{1, 4, 7, 10}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestSecondaryReindexOnUpdate(t *testing.T) {
	s := NewStore()
	schema := storage.NewSchema(1, "people", []storage.Column{
		{Name: "id", Type: storage.Int64},
		{Name: "age", Type: storage.Int64},
	}, []int{0})
	tbl := s.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 64)
	byAge := tbl.AddSecondary(func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 1))<<32 | uint64(schema.GetInt64(tup, 0))
	})

	tx := s.Begin()
	mustInsert(t, tx, tbl, 1, 30)
	commit(t, tx)
	tx2 := s.Begin()
	if err := tx2.Update(tbl, 1, []int{1}, func(tup []byte) { schema.PutInt64(tup, 1, 40) }); err != nil {
		t.Fatal(err)
	}
	commit(t, tx2)

	ro := s.BeginRO()
	defer ro.Release()
	// Lookup under the new key must find the row.
	found := false
	for it := byAge.Seek(40 << 32); it.Valid() && it.Key() < 41<<32; it.Next() {
		if rec := ro.ReadChain(it.Value()); rec != nil && schema.GetInt64(rec.Data, 1) == 40 {
			found = true
		}
	}
	if !found {
		t.Fatal("updated row not found under new secondary key")
	}
	// The stale old entry must be filtered by key re-derivation.
	for it := byAge.Seek(30 << 32); it.Valid() && it.Key() < 31<<32; it.Next() {
		rec := ro.ReadChain(it.Value())
		if rec != nil && byAge.KeyFn(rec.Data) == it.Key() {
			t.Fatal("stale index entry matched after update")
		}
	}
}
