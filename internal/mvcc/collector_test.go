package mvcc

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"batchdb/internal/storage"
)

// gcTable is the table the collector tests drive: key, group and value,
// with a secondary index on (group, key) so that changing a row's group
// leaves a stale index entry behind.
func gcTable() (*Store, *Table, *Secondary) {
	s := NewStore()
	schema := storage.NewSchema(1, "g", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "grp", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
	}, []int{0})
	tbl := s.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 64)
	sec := tbl.AddSecondary(func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 1))<<40 | uint64(schema.GetInt64(tup, 0))
	})
	return s, tbl, sec
}

type gcRow struct{ grp, v int64 }

func gcTuple(tbl *Table, k int64, r gcRow) []byte {
	tup := tbl.Schema.NewTuple()
	tbl.Schema.PutInt64(tup, 0, k)
	tbl.Schema.PutInt64(tup, 1, r.grp)
	tbl.Schema.PutInt64(tup, 2, r.v)
	return tup
}

// visibleRows returns what a reader sees: through the scan list, and
// through the secondary index (entries re-derived, as readers do).
func visibleRows(ro *Txn, tbl *Table, sec *Secondary) (scan, index map[int64]gcRow) {
	scan, index = map[int64]gcRow{}, map[int64]gcRow{}
	row := func(rec *Record) (int64, gcRow) {
		return tbl.Schema.GetInt64(rec.Data, 0),
			gcRow{tbl.Schema.GetInt64(rec.Data, 1), tbl.Schema.GetInt64(rec.Data, 2)}
	}
	tbl.ScanChains(func(c *Chain) bool {
		if rec := ro.ReadChain(c); rec != nil {
			k, r := row(rec)
			scan[k] = r
		}
		return true
	})
	for it := sec.Seek(0); it.Valid(); it.Next() {
		if rec := ro.ReadChain(it.Value()); rec != nil && sec.KeyFn(rec.Data) == it.Key() {
			k, r := row(rec)
			index[k] = r
		}
	}
	return scan, index
}

func sameRows(a, b map[int64]gcRow) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// physical describes what a store physically holds, for comparing twins:
// primary-index keys, secondary-index entries (with the key of the chain
// each points at) and the number of linked versions per row.
func physical(tbl *Table, sec *Secondary) (pk []uint64, idx [][2]uint64, versions map[uint64]int) {
	versions = map[uint64]int{}
	tbl.pk.Range(func(k uint64, c *Chain) bool {
		pk = append(pk, k)
		versions[k] = chainLen(c)
		return true
	})
	sort.Slice(pk, func(i, j int) bool { return pk[i] < pk[j] })
	for it := sec.Seek(0); it.Valid(); it.Next() {
		idx = append(idx, [2]uint64{it.Key(), it.Value().Key})
	}
	return pk, idx, versions
}

// gcTwin is one of two stores driven through the same history.
type gcTwin struct {
	s          *Store
	tbl        *Table
	sec        *Secondary
	collectors []*Collector // nil: this twin is swept with CollectGarbage
	commits    int
}

// apply runs one scripted transaction and reports whether it committed.
func (w *gcTwin) apply(t *testing.T, script func(tx *Txn) error, worker int) bool {
	tx := w.s.Begin()
	if err := script(tx); err != nil {
		tx.Abort()
		return false
	}
	writes := tx.Writes()
	cv, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	w.commits++
	if w.collectors == nil {
		if w.commits%97 == 0 {
			w.s.CollectGarbage()
		}
		return true
	}
	g := w.collectors[worker]
	g.Committed(writes, cv)
	if w.commits%13 == 0 {
		g.Collect()
	}
	return true
}

// The write-set collectors and the full sweep must leave twin stores in
// the same state: the same rows visible at every snapshot a reader still
// holds, and at quiesce the same primary index, the same secondary index
// and the same versions — while the scan list stays as small as the live
// rows under a constant-size insert/delete churn.
func TestCollectorMatchesSweep(t *testing.T) {
	const (
		ops      = 200_000
		window   = 1500 // live rows of the constant-size churn
		groups   = 7
		nWorkers = 3
	)
	if testing.Short() {
		t.Skip("200k-operation twin run")
	}
	rng := rand.New(rand.NewSource(16))
	var twins [2]*gcTwin
	for i := range twins {
		s, tbl, sec := gcTable()
		twins[i] = &gcTwin{s: s, tbl: tbl, sec: sec}
	}
	for i := 0; i < nWorkers; i++ {
		twins[0].collectors = append(twins[0].collectors, twins[0].s.NewCollector())
	}

	model := map[int64]gcRow{}
	var oldest, next int64 // live keys are a subset of [oldest, next)

	// Long-lived readers: the same snapshots on both twins, each with the
	// model's state at the time it was taken.
	type reader struct {
		ro   [2]*Txn
		want map[int64]gcRow
		left int
	}
	var readers []*reader
	checkReaders := func(step int) {
		for _, r := range readers {
			for i, w := range twins {
				scan, index := visibleRows(r.ro[i], w.tbl, w.sec)
				if !sameRows(scan, r.want) || !sameRows(index, r.want) {
					t.Fatalf("step %d, twin %d: a registered reader at snapshot %d no longer sees its rows (scan %d, index %d, want %d)",
						step, i, r.ro[i].Snapshot(), len(scan), len(index), len(r.want))
				}
			}
		}
	}

	// A step is one or two scripted transactions, decided up front so
	// that both twins run the same thing; a script's effect reaches the
	// model when it commits.
	type script struct {
		run func(tbl *Table, tx *Txn) error
		ok  func()
	}
	put := func(col int, k, val int64) func(*Table, *Txn) error {
		return func(tbl *Table, tx *Txn) error {
			return tx.Update(tbl, uint64(k), []int{col}, func(tup []byte) { tbl.Schema.PutInt64(tup, col, val) })
		}
	}
	insert := func(k int64, r gcRow) func(*Table, *Txn) error {
		return func(tbl *Table, tx *Txn) error { err := tx.Insert(tbl, gcTuple(tbl, k, r)); return err }
	}
	remove := func(k int64) func(*Table, *Txn) error {
		return func(tbl *Table, tx *Txn) error { return tx.Delete(tbl, uint64(k)) }
	}
	for step := 0; step < ops; step++ {
		var scripts []script
		pick := func() int64 { return oldest + rng.Int63n(next-oldest) } // a live key
		switch p := rng.Intn(100); {
		case next-oldest < window: // constant size: a deleted row is replaced at once
			k, r := next, gcRow{rng.Int63n(groups), int64(step)}
			scripts = []script{{insert(k, r), func() { model[k] = r; next++ }}}
		case p < 45: // delete the oldest key
			k := oldest
			scripts = []script{{remove(k), func() { delete(model, k); oldest++ }}}
		case p < 70: // plain update
			k, v := pick(), int64(step)
			scripts = []script{{put(2, k, v), func() { r := model[k]; r.v = v; model[k] = r }}}
		case p < 87: // key-changing update
			k, g := pick(), rng.Int63n(groups)
			scripts = []script{{put(1, k, g), func() { r := model[k]; r.grp = g; model[k] = r }}}
		case p < 92: // delete a row and insert it again right away
			k, r := pick(), gcRow{rng.Int63n(groups), int64(step)}
			scripts = []script{
				{remove(k), func() { delete(model, k) }},
				{insert(k, r), func() { model[k] = r }},
			}
		case p < 96: // own writes: two key changes, and an insert taken back
			k, g1, g2, tmp := pick(), rng.Int63n(groups), rng.Int63n(groups), next+1_000_000
			scripts = []script{{func(tbl *Table, tx *Txn) error {
				for _, run := range []func(*Table, *Txn) error{put(1, k, g1), put(1, k, g2), insert(tmp, gcRow{g1, 0}), remove(tmp)} {
					if err := run(tbl, tx); err != nil {
						return err
					}
				}
				return nil
			}, func() { r := model[k]; r.grp = g2; model[k] = r }}}
		case p < 98: // a key that does not exist
			scripts = []script{{put(2, next, 0), func() { t.Fatal("update of a missing row committed") }}}
		default: // writes, then the procedure fails: everything aborts
			k, g, tmp := pick(), rng.Int63n(groups), next+2_000_000
			scripts = []script{{func(tbl *Table, tx *Txn) error {
				if err := put(1, k, g)(tbl, tx); err != nil {
					return err
				}
				if err := insert(tmp, gcRow{g, 0})(tbl, tx); err != nil {
					return err
				}
				return fmt.Errorf("procedure failed")
			}, func() { t.Fatal("a failing procedure committed") }}}
		}
		worker := rng.Intn(nWorkers)
		for _, sc := range scripts {
			var done [2]bool
			for i, w := range twins {
				done[i] = w.apply(t, func(tx *Txn) error { return sc.run(w.tbl, tx) }, worker)
			}
			if done[0] != done[1] {
				t.Fatalf("step %d: twins disagree on the outcome (%v vs %v)", step, done[0], done[1])
			}
			if done[0] {
				sc.ok()
			}
		}
		if a, b := twins[0].s.VIDs.Watermark(), twins[1].s.VIDs.Watermark(); a != b {
			t.Fatalf("step %d: watermarks diverged (%d vs %d)", step, a, b)
		}

		// Readers come and go; those still registered are checked every so
		// often and when they leave.
		// A reader pins every row deleted while it is registered, so the
		// scan list's high-water mark is the live rows plus the longest
		// reader's worth of deletes: lifetimes are kept to a tenth of the
		// window's turnover for the slot bound checked at the end.
		if rng.Intn(700) == 0 && len(readers) < 4 {
			r := &reader{want: make(map[int64]gcRow, len(model)), left: 50 + rng.Intn(450)}
			for k, v := range model {
				r.want[k] = v
			}
			for i, w := range twins {
				r.ro[i] = w.s.BeginRO()
			}
			readers = append(readers, r)
		}
		if step%1000 == 0 {
			checkReaders(step)
		}
		for i := 0; i < len(readers); i++ {
			r := readers[i]
			if r.left--; r.left == 0 {
				checkReaders(step)
				r.ro[0].Release()
				r.ro[1].Release()
				readers = append(readers[:i], readers[i+1:]...)
				i--
			}
		}
	}

	// Quiesce: let every reader go and both collectors finish.
	checkReaders(ops)
	for _, r := range readers {
		r.ro[0].Release()
		r.ro[1].Release()
	}
	for _, g := range twins[0].collectors {
		g.Collect()
		if g.Pending() != 0 {
			t.Fatalf("collector still holds %d chains at quiesce", g.Pending())
		}
	}
	twins[1].s.CollectGarbage()

	var pks [2][]uint64
	var idxs [2][][2]uint64
	var vers [2]map[uint64]int
	for i, w := range twins {
		ro := w.s.BeginRO()
		scan, index := visibleRows(ro, w.tbl, w.sec)
		ro.Release()
		if !sameRows(scan, model) || !sameRows(index, model) {
			t.Fatalf("twin %d at quiesce: scan sees %d rows, index %d, model has %d", i, len(scan), len(index), len(model))
		}
		pks[i], idxs[i], vers[i] = physical(w.tbl, w.sec)
	}
	if fmt.Sprint(pks[0]) != fmt.Sprint(pks[1]) {
		t.Fatalf("primary indexes differ: %d keys with collectors, %d with the sweep", len(pks[0]), len(pks[1]))
	}
	if fmt.Sprint(idxs[0]) != fmt.Sprint(idxs[1]) {
		t.Fatalf("secondary indexes differ: %d entries with collectors, %d with the sweep", len(idxs[0]), len(idxs[1]))
	}
	if fmt.Sprint(vers[0]) != fmt.Sprint(vers[1]) {
		t.Fatal("version counts differ between collectors and sweep")
	}
	if len(pks[0]) != len(model) || len(idxs[0]) != len(model) {
		t.Fatalf("garbage left: %d primary keys and %d index entries for %d rows", len(pks[0]), len(idxs[0]), len(model))
	}
	// The sweep is the oracle: run over the collectors' store it must
	// find nothing left to do.
	if st := twins[0].s.CollectGarbage(); st.VersionsUnlinked+st.ChainsRetired+st.IndexEntriesRemoved != 0 {
		t.Fatalf("the sweep found garbage the collectors left: %+v", st)
	}
	for i, w := range twins {
		live, slots := w.tbl.NumChains(), w.tbl.ScanListSlots()
		if live != len(model) {
			t.Fatalf("twin %d: NumChains = %d, want %d live rows", i, live, len(model))
		}
		t.Logf("twin %d: %d scan-list slots for %d live chains", i, slots, live)
		if slots*4 > live*5 {
			t.Fatalf("twin %d: %d scan-list slots for %d live chains after %d operations (more than 1.25x)", i, slots, live, ops)
		}
	}
}

// Workers with their own collectors, long-lived readers and a scanner
// all run at once: no reader may lose a row it can see, no scan may see
// a chain twice, and once everything has quiesced the sweep must find
// nothing the collectors missed.
func TestCollectorsConcurrent(t *testing.T) {
	const (
		workers = 4
		keys    = 400
		groups  = 5
	)
	perWorker := 6000
	if testing.Short() {
		perWorker = 1500
	}
	s, tbl, sec := gcTable()
	setup := s.Begin()
	for k := int64(0); k < keys; k += 2 {
		if err := setup.Insert(tbl, gcTuple(tbl, k, gcRow{k % groups, 0})); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, setup)

	var writers, observers sync.WaitGroup
	stop := make(chan struct{})
	var failed atomic.Bool
	fail := func(format string, a ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, a...)
		}
	}

	// Scanner: the checkpoint / bootstrap shape. One pass never meets a
	// chain twice, and what it reads is what the index reads.
	observers.Add(1)
	go func() {
		defer observers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ro := s.BeginRO()
			seen := map[*Chain]bool{}
			tbl.ScanChains(func(c *Chain) bool {
				if seen[c] {
					fail("scan visited chain %d twice", c.Key)
				}
				seen[c] = true
				return true
			})
			scan, index := visibleRows(ro, tbl, sec)
			if !sameRows(scan, index) {
				fail("snapshot %d: scan sees %d rows, the index %d", ro.Snapshot(), len(scan), len(index))
			}
			ro.Release()
		}
	}()
	// Long-lived readers: what a snapshot saw when it was taken it must
	// see until it is released, whatever is collected meanwhile.
	for r := 0; r < 2; r++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ro := s.BeginRO()
				first, _ := visibleRows(ro, tbl, sec)
				for i := 0; i < 20; i++ {
					scan, index := visibleRows(ro, tbl, sec)
					if !sameRows(scan, first) || !sameRows(index, first) {
						fail("snapshot %d changed under a registered reader: %d rows, then scan %d / index %d",
							ro.Snapshot(), len(first), len(scan), len(index))
					}
				}
				ro.Release()
			}
		}()
	}
	collectors := make([]*Collector, workers)
	for w := range collectors {
		collectors[w] = s.NewCollector()
		writers.Add(1)
		go func(seed int64, g *Collector) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				k, grp := rng.Int63n(keys), rng.Int63n(groups)
				tx := s.Begin()
				var err error
				switch rng.Intn(5) {
				case 0:
					err = tx.Insert(tbl, gcTuple(tbl, k, gcRow{grp, int64(i)}))
				case 1:
					err = tx.Delete(tbl, uint64(k))
				case 2:
					err = tx.Update(tbl, uint64(k), []int{2}, func(tup []byte) { tbl.Schema.PutInt64(tup, 2, int64(i)) })
				default:
					err = tx.Update(tbl, uint64(k), []int{1}, func(tup []byte) { tbl.Schema.PutInt64(tup, 1, grp) })
				}
				if err != nil || rng.Intn(10) == 0 {
					tx.Abort()
					continue
				}
				writes := tx.Writes()
				cv, cerr := tx.Commit()
				if cerr != nil {
					fail("commit: %v", cerr)
					return
				}
				g.Committed(writes, cv)
				if i%8 == 0 {
					g.Collect()
				}
			}
		}(int64(w)+1, collectors[w])
	}
	writers.Wait()
	close(stop)
	observers.Wait()
	if failed.Load() {
		return
	}

	// Quiesced: nothing holds the horizon back any more, so one last turn
	// empties every collector, and the sweep — the oracle — must then find
	// nothing they missed.
	for w, g := range collectors {
		if g.Collect(); g.Pending() != 0 {
			t.Fatalf("collector %d still holds %d chains at quiesce", w, g.Pending())
		}
	}
	if st := s.CollectGarbage(); st.VersionsUnlinked+st.ChainsRetired+st.IndexEntriesRemoved != 0 {
		t.Fatalf("the sweep found garbage the collectors left: %+v", st)
	}
	ro := s.BeginRO()
	defer ro.Release()
	scan, index := visibleRows(ro, tbl, sec)
	if !sameRows(scan, index) {
		t.Fatalf("at quiesce the scan sees %d rows, the index %d", len(scan), len(index))
	}
	pk, idx, versions := physical(tbl, sec)
	if len(pk) != len(scan) || len(idx) != len(scan) || tbl.NumChains() != len(scan) {
		t.Fatalf("at quiesce: %d rows, but %d primary keys, %d index entries, %d chains", len(scan), len(pk), len(idx), tbl.NumChains())
	}
	for k, n := range versions {
		if n != 1 {
			t.Fatalf("row %d keeps %d versions at quiesce", k, n)
		}
	}
}
