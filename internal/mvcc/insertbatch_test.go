package mvcc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"batchdb/internal/storage"
)

func batchTestTable(id storage.TableID) (*Store, *Table, *storage.Schema) {
	schema := storage.NewSchema(id, fmt.Sprintf("bt%d", id), []storage.Column{
		{Name: "id", Type: storage.Int64},
		{Name: "val", Type: storage.Int64},
	}, []int{0})
	st := NewStore()
	tbl := st.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 1024)
	tbl.AddSecondary(func(tup []byte) uint64 {
		// Non-unique: fold the PK in as a uniquifier.
		return uint64(schema.GetInt64(tup, 1))<<20 | uint64(schema.GetInt64(tup, 0))
	})
	return st, tbl, schema
}

func mkTup(schema *storage.Schema, id, val int64) []byte {
	tup := schema.NewTuple()
	schema.PutInt64(tup, 0, id)
	schema.PutInt64(tup, 1, val)
	return tup
}

// TestInsertBatchParity inserts the same rows through Insert and
// InsertBatch in two stores and checks identical visible state and
// secondary-index content.
func TestInsertBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	stA, tblA, schema := batchTestTable(1)
	stB, tblB, _ := batchTestTable(1)

	const rows = 500
	ids := rng.Perm(rows)
	var tupsA, tupsB [][]byte
	for _, id := range ids {
		val := rng.Int63n(1000)
		tupsA = append(tupsA, mkTup(schema, int64(id), val))
		tupsB = append(tupsB, mkTup(schema, int64(id), val))
	}

	txA := stA.Begin()
	for _, tup := range tupsA {
		if err := txA.Insert(tblA, tup); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txA.Commit(); err != nil {
		t.Fatal(err)
	}

	txB := stB.Begin()
	if err := txB.InsertBatch(tblB, tupsB); err != nil {
		t.Fatal(err)
	}
	if _, err := txB.Commit(); err != nil {
		t.Fatal(err)
	}

	roA, roB := stA.BeginRO(), stB.BeginRO()
	defer roA.Release()
	defer roB.Release()
	for _, id := range ids {
		a, okA := roA.Get(tblA, uint64(id))
		b, okB := roB.Get(tblB, uint64(id))
		if !okA || !okB {
			t.Fatalf("row %d: visible %v/%v", id, okA, okB)
		}
		if schema.GetInt64(a, 1) != schema.GetInt64(b, 1) {
			t.Fatalf("row %d: value mismatch", id)
		}
	}

	// Secondary indexes carry identical entry sets.
	count := func(tbl *Table, ro *Txn) int {
		n := 0
		for it := tbl.sec[0].Seek(0); it.Valid(); it.Next() { // by_val
			if ro.ReadChain(it.Value()) != nil {
				n++
			}
		}
		return n
	}
	if a, b := count(tblA, roA), count(tblB, roB); a != b || a != rows {
		t.Fatalf("secondary entries: single-path %d, batch %d, want %d", a, b, rows)
	}
}

// TestInsertBatchErrors pins duplicate handling: intra-batch duplicates
// fail before touching shared state; conflicts with resident rows fail
// with the same errors Insert produces; an aborted batch leaves nothing
// visible.
func TestInsertBatchErrors(t *testing.T) {
	st, tbl, schema := batchTestTable(1)

	tx := st.Begin()
	if err := tx.Insert(tbl, mkTup(schema, 7, 70)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Intra-batch duplicate.
	tx = st.Begin()
	err := tx.InsertBatch(tbl, [][]byte{mkTup(schema, 1, 1), mkTup(schema, 1, 2)})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("intra-batch duplicate: %v, want ErrDuplicateKey", err)
	}
	tx.Abort()

	// Duplicate against a committed row; the batch prefix must unwind on
	// abort.
	tx = st.Begin()
	err = tx.InsertBatch(tbl, [][]byte{mkTup(schema, 100, 1), mkTup(schema, 7, 2)})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("resident duplicate: %v, want ErrDuplicateKey", err)
	}
	tx.Abort()
	ro := st.BeginRO()
	if _, ok := ro.Get(tbl, 100); ok {
		t.Fatal("aborted batch prefix still visible")
	}
	if tup, ok := ro.Get(tbl, 7); !ok || schema.GetInt64(tup, 1) != 70 {
		t.Fatal("pre-existing row damaged by aborted batch")
	}
	ro.Release()

	// Write-write conflict against a concurrent uncommitted insert.
	tx1 := st.Begin()
	if err := tx1.Insert(tbl, mkTup(schema, 200, 1)); err != nil {
		t.Fatal(err)
	}
	tx2 := st.Begin()
	err = tx2.InsertBatch(tbl, [][]byte{mkTup(schema, 201, 1), mkTup(schema, 200, 2)})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("conflict with pending insert: %v, want ErrConflict", err)
	}
	tx2.Abort()
	tx1.Abort()
}

// TestInsertBatchConcurrent runs concurrent batch inserts over disjoint
// key ranges plus readers, under -race.
func TestInsertBatchConcurrent(t *testing.T) {
	st, tbl, schema := batchTestTable(1)
	const (
		writers = 4
		batches = 20
		per     = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				var tups [][]byte
				for i := 0; i < per; i++ {
					id := int64(w*batches*per + b*per + i)
					tups = append(tups, mkTup(schema, id, id*2))
				}
				tx := st.Begin()
				if err := tx.InsertBatch(tbl, tups); err != nil {
					t.Errorf("writer %d: %v", w, err)
					tx.Abort()
					return
				}
				if _, err := tx.Commit(); err != nil {
					t.Errorf("writer %d commit: %v", w, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			ro := st.BeginRO()
			n := 0
			tbl.ScanChains(func(c *Chain) bool {
				if ro.ReadChain(c) != nil {
					n++
				}
				return true
			})
			ro.Release()
			if want := writers * batches * per; n != want {
				t.Fatalf("visible rows %d, want %d", n, want)
			}
			return
		default:
			ro := st.BeginRO()
			// Concurrent snapshot reads while batches land.
			for i := 0; i < 100; i++ {
				ro.Get(tbl, uint64(i*37))
			}
			ro.Release()
		}
	}
}
