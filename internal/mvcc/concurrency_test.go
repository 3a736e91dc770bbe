package mvcc

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"batchdb/internal/storage"
)

// TestConcurrentTransfers runs the classic bank-transfer invariant:
// concurrent transfers between accounts must conserve the total balance,
// and every snapshot must observe a conserved total (snapshot isolation
// forbids seeing half a transfer).
func TestConcurrentTransfers(t *testing.T) {
	s, tbl := testTable(t)
	const accounts = 20
	const initial = 1000
	tx := s.Begin()
	for i := int64(0); i < accounts; i++ {
		mustInsert(t, tx, tbl, i, initial)
	}
	commit(t, tx)

	var conflicts atomic.Int64
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})

	// Readers continuously verify conservation on live snapshots.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ro := s.BeginRO()
				total := int64(0)
				for i := int64(0); i < accounts; i++ {
					v, ok := getValNT(ro, tbl, i)
					if !ok {
						t.Errorf("account %d missing", i)
						ro.Release()
						return
					}
					total += v
				}
				ro.Release()
				if total != accounts*initial {
					t.Errorf("snapshot total = %d, want %d", total, accounts*initial)
					return
				}
			}
		}(int64(r))
	}

	// Writers transfer random amounts.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				from := rng.Int63n(accounts)
				to := rng.Int63n(accounts)
				if from == to {
					continue
				}
				amt := rng.Int63n(10) + 1
				tx := s.Begin()
				err := tx.Update(tbl, uint64(from), []int{1}, func(tup []byte) {
					tbl.Schema.PutInt64(tup, 1, tbl.Schema.GetInt64(tup, 1)-amt)
				})
				if err == nil {
					err = tx.Update(tbl, uint64(to), []int{1}, func(tup []byte) {
						tbl.Schema.PutInt64(tup, 1, tbl.Schema.GetInt64(tup, 1)+amt)
					})
				}
				if err != nil {
					if !errors.Is(err, ErrConflict) {
						t.Errorf("transfer failed: %v", err)
						tx.Abort()
						return
					}
					conflicts.Add(1)
					tx.Abort()
					continue
				}
				if _, err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(int64(w + 100))
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	ro := s.BeginRO()
	defer ro.Release()
	total := int64(0)
	for i := int64(0); i < accounts; i++ {
		v, _ := getValNT(ro, tbl, i)
		total += v
	}
	if total != accounts*initial {
		t.Fatalf("final total = %d, want %d (conflicts=%d)", total, accounts*initial, conflicts.Load())
	}
}

func getValNT(tx *Txn, tbl *Table, k int64) (int64, bool) {
	tup, ok := tx.Get(tbl, uint64(k))
	if !ok {
		return 0, false
	}
	return tbl.Schema.GetInt64(tup, 1), true
}

// TestConcurrentInsertsUniqueKeys: racing inserters on the same key —
// exactly one must win per key.
func TestConcurrentInsertRace(t *testing.T) {
	s, tbl := testTable(t)
	const keys = 100
	const racers = 4
	var wins atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := int64(0); k < keys; k++ {
				tx := s.Begin()
				tup := tbl.Schema.NewTuple()
				tbl.Schema.PutInt64(tup, 0, k)
				tbl.Schema.PutInt64(tup, 1, int64(r))
				if err := tx.Insert(tbl, tup); err == nil {
					if _, err := tx.Commit(); err == nil {
						wins.Add(1)
					}
				} else {
					tx.Abort()
				}
			}
		}(r)
	}
	wg.Wait()
	if wins.Load() != keys {
		t.Fatalf("winning inserts = %d, want %d", wins.Load(), keys)
	}
	ro := s.BeginRO()
	defer ro.Release()
	for k := int64(0); k < keys; k++ {
		if _, ok := getValNT(ro, tbl, k); !ok {
			t.Fatalf("key %d missing", k)
		}
	}
}

func TestGCUnlinksOldVersions(t *testing.T) {
	s, tbl := testTable(t)
	tx := s.Begin()
	mustInsert(t, tx, tbl, 1, 0)
	commit(t, tx)
	for i := 1; i <= 50; i++ {
		tx := s.Begin()
		if err := tx.Update(tbl, 1, []int{1}, func(tup []byte) {
			tbl.Schema.PutInt64(tup, 1, int64(i))
		}); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}
	c := tbl.getChain(1)
	if n := chainLen(c); n != 51 {
		t.Fatalf("chain length before GC = %d, want 51", n)
	}
	st := s.CollectGarbage()
	if n := chainLen(c); n != 1 {
		t.Fatalf("chain length after GC = %d, want 1 (stats %+v)", n, st)
	}
	ro := s.BeginRO()
	defer ro.Release()
	if v, _ := getValNT(ro, tbl, 1); v != 50 {
		t.Fatalf("value after GC = %d, want 50", v)
	}
}

func TestGCRespectsActiveSnapshot(t *testing.T) {
	s, tbl := testTable(t)
	tx := s.Begin()
	mustInsert(t, tx, tbl, 1, 1)
	commit(t, tx)

	ro := s.BeginRO() // pin snapshot 1
	for i := 2; i <= 5; i++ {
		tx := s.Begin()
		if err := tx.Update(tbl, 1, []int{1}, func(tup []byte) {
			tbl.Schema.PutInt64(tup, 1, int64(i))
		}); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}
	s.CollectGarbage()
	// The pinned snapshot must still read its version.
	if v, ok := getValNT(ro, tbl, 1); !ok || v != 1 {
		t.Fatalf("pinned snapshot reads %d,%v; want 1,true", v, ok)
	}
	ro.Release()
	s.CollectGarbage()
	if n := chainLen(tbl.getChain(1)); n != 1 {
		t.Fatalf("chain length after release+GC = %d, want 1", n)
	}
}

func TestGCRetiresDeletedRows(t *testing.T) {
	s, tbl := testTable(t)
	tx := s.Begin()
	for i := int64(0); i < 10; i++ {
		mustInsert(t, tx, tbl, i, i)
	}
	commit(t, tx)
	for i := int64(0); i < 5; i++ {
		tx := s.Begin()
		if err := tx.Delete(tbl, uint64(i)); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}
	st := s.CollectGarbage()
	if st.ChainsRetired != 5 {
		t.Fatalf("ChainsRetired = %d, want 5 (stats %+v)", st.ChainsRetired, st)
	}
	// Deleted keys can be re-inserted afterwards.
	tx2 := s.Begin()
	mustInsert(t, tx2, tbl, 2, 222)
	commit(t, tx2)
	ro := s.BeginRO()
	defer ro.Release()
	if v, ok := getValNT(ro, tbl, 2); !ok || v != 222 {
		t.Fatalf("re-insert after retire = %d,%v", v, ok)
	}
	// Survivors intact.
	for i := int64(5); i < 10; i++ {
		if v, ok := getValNT(ro, tbl, i); !ok || v != i {
			t.Fatalf("survivor %d = %d,%v", i, v, ok)
		}
	}
}

func TestGCConcurrentWithWriters(t *testing.T) {
	s, tbl := testTable(t)
	tx := s.Begin()
	for i := int64(0); i < 50; i++ {
		mustInsert(t, tx, tbl, i, 0)
	}
	commit(t, tx)

	var wg, gcwg sync.WaitGroup
	stop := make(chan struct{})
	gcwg.Add(1)
	go func() { // GC loop
		defer gcwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.CollectGarbage()
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				k := rng.Int63n(50)
				tx := s.Begin()
				var err error
				switch rng.Intn(3) {
				case 0: // update
					err = tx.Update(tbl, uint64(k), []int{1}, func(tup []byte) {
						tbl.Schema.PutInt64(tup, 1, int64(i))
					})
				case 1: // delete
					err = tx.Delete(tbl, uint64(k))
				default: // insert (may be dup)
					tup := tbl.Schema.NewTuple()
					tbl.Schema.PutInt64(tup, 0, k)
					tbl.Schema.PutInt64(tup, 1, int64(i))
					err = tx.Insert(tbl, tup)
				}
				if err != nil {
					tx.Abort()
					continue
				}
				if _, err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(int64(w + 7))
	}
	wg.Wait()
	close(stop)
	gcwg.Wait()

	// Every surviving row must be readable and every read consistent.
	ro := s.BeginRO()
	defer ro.Release()
	for i := int64(0); i < 50; i++ {
		getValNT(ro, tbl, i) // must not panic or hang
	}
}

// Property: a serial history of random ops against the store matches a
// plain map (serializable == snapshot-isolated for serial execution).
func TestSerialHistoryMatchesMap(t *testing.T) {
	type op struct {
		Key uint64
		Val int64
		Op  uint8
	}
	f := func(ops []op) bool {
		s, _ := quickStoreTable()
		tbl := s.Tables()[0]
		ref := make(map[uint64]int64)
		for _, o := range ops {
			k := o.Key % 32
			tx := s.Begin()
			var err error
			switch o.Op % 3 {
			case 0: // insert
				tup := tbl.Schema.NewTuple()
				tbl.Schema.PutInt64(tup, 0, int64(k))
				tbl.Schema.PutInt64(tup, 1, o.Val)
				err = tx.Insert(tbl, tup)
				if _, exists := ref[k]; exists {
					if !errors.Is(err, ErrDuplicateKey) {
						return false
					}
				} else if err == nil {
					ref[k] = o.Val
				}
			case 1: // update
				err = tx.Update(tbl, k, nil, func(tup []byte) {
					tbl.Schema.PutInt64(tup, 1, o.Val)
				})
				if _, exists := ref[k]; exists {
					if err != nil {
						return false
					}
					ref[k] = o.Val
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			default: // delete
				err = tx.Delete(tbl, k)
				if _, exists := ref[k]; exists {
					if err != nil {
						return false
					}
					delete(ref, k)
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			}
			if err != nil {
				tx.Abort()
			} else if _, cerr := tx.Commit(); cerr != nil {
				return false
			}
		}
		ro := s.BeginRO()
		defer ro.Release()
		for k := uint64(0); k < 32; k++ {
			tup, ok := ro.Get(tbl, k)
			want, exists := ref[k]
			if ok != exists {
				return false
			}
			if ok && tbl.Schema.GetInt64(tup, 1) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func quickStoreTable() (*Store, *storage.Schema) {
	s := NewStore()
	schema := storage.NewSchema(1, "kv", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
	}, []int{0})
	s.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 64)
	return s, schema
}

func chainLen(c *Chain) int {
	n := 0
	for r := c.Head(); r != nil; r = r.Older() {
		n++
	}
	return n
}
