package mvcc

import (
	"errors"
	"testing"
	"unsafe"
)

func TestLoadRowVisibleToAllSnapshots(t *testing.T) {
	s, tbl := testTable(t)
	if err := tbl.LoadRow(kvTuple(tbl, 1, 11)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.LoadRow(kvTuple(tbl, 1, 12)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate load: %v", err)
	}
	// VID-0 data is the "initial load": visible at snapshot 0 and later.
	for _, snap := range []uint64{0, 1, 1 << 40} {
		ro := s.BeginROAt(snap)
		if v, ok := getVal(ro, tbl, 1); !ok || v != 11 {
			t.Fatalf("loaded row at snapshot %d = %d,%v", snap, v, ok)
		}
		ro.Release()
	}
}

// TestWrongWidthTupleRejected pins that every way a row enters the
// store refuses a tuple that is not the schema's width, and leaves its
// key free: the replica stores fixed-width slots, so such a row would
// commit here and fail every apply round after.
func TestWrongWidthTupleRejected(t *testing.T) {
	s, tbl := testTable(t)
	long := append(kvTuple(tbl, 1, 1), make([]byte, 8)...)
	short := kvTuple(tbl, 1, 1)[:8]
	for _, bad := range [][]byte{long, short} {
		if err := tbl.LoadRow(bad); err == nil {
			t.Fatalf("LoadRow accepted a %d-byte tuple", len(bad))
		}
		tx := s.Begin()
		if err := tx.Insert(tbl, bad); err == nil {
			t.Fatalf("Insert accepted a %d-byte tuple", len(bad))
		}
		if err := tx.InsertBatch(tbl, [][]byte{kvTuple(tbl, 2, 2), bad}); err == nil {
			t.Fatalf("InsertBatch accepted a %d-byte tuple", len(bad))
		}
		tx.Abort()
	}
	if n := tbl.NumChains(); n != 0 {
		t.Fatalf("rejected tuples left %d chains", n)
	}
	tx := s.Begin()
	mustInsert(t, tx, tbl, 1, 7)
	commit(t, tx)
}

// TestRecordSize pins the per-version footprint: 48 bytes is a size
// class of its own, where one more word would be allocated as 64.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 48 {
		t.Fatalf("Record is %d bytes, want 48", n)
	}
}

func kvTuple(tbl *Table, k, v int64) []byte {
	tup := tbl.Schema.NewTuple()
	tbl.Schema.PutInt64(tup, 0, k)
	tbl.Schema.PutInt64(tup, 1, v)
	return tup
}
