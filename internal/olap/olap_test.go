package olap

import (
	"encoding/binary"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

func kvSchema() *storage.Schema {
	return storage.NewSchema(1, "kv", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
	}, []int{0})
}

// col0Key is the primary key of a schema keyed by its Int64 column 0.
func col0Key(s *storage.Schema) func([]byte) uint64 {
	return func(tup []byte) uint64 { return uint64(s.GetInt64(tup, 0)) }
}

func tuple(s *storage.Schema, k, v int64) []byte {
	t := s.NewTuple()
	s.PutInt64(t, 0, k)
	s.PutInt64(t, 1, v)
	return t
}

func TestPartitionInsertGetScan(t *testing.T) {
	s := kvSchema()
	p := NewPartition(s, 4)
	for i := int64(1); i <= 10; i++ {
		if err := p.Insert(uint64(i), tuple(s, i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	if p.Live() != 10 {
		t.Fatalf("Live = %d", p.Live())
	}
	tup, ok := p.Get(5)
	if !ok || s.GetInt64(tup, 1) != 50 {
		t.Fatalf("Get(5) = %v,%v", tup, ok)
	}
	seen := 0
	p.Scan(func(rowID uint64, tup []byte) bool {
		if s.GetInt64(tup, 1) != int64(rowID)*10 {
			t.Fatalf("scan row %d has value %d", rowID, s.GetInt64(tup, 1))
		}
		seen++
		return true
	})
	if seen != 10 {
		t.Fatalf("scanned %d rows", seen)
	}
}

func TestPartitionScanRange(t *testing.T) {
	s := kvSchema()
	p := NewPartition(s, 4)
	for i := int64(1); i <= 20; i++ {
		if err := p.Insert(uint64(i), tuple(s, i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	p.Delete(5) // tombstone inside the first range

	// Covering the slot space with disjoint ranges must reproduce a full
	// Scan, whatever the morsel boundaries.
	for _, step := range []int{1, 3, 7, 20, 1000} {
		var got []uint64
		for lo := 0; lo < p.Slots(); lo += step {
			p.ScanRange(lo, lo+step, func(rowID uint64, tup []byte) bool {
				if s.GetInt64(tup, 1) != int64(rowID)*10 {
					t.Fatalf("step %d: row %d has value %d", step, rowID, s.GetInt64(tup, 1))
				}
				got = append(got, rowID)
				return true
			})
		}
		var want []uint64
		p.Scan(func(rowID uint64, _ []byte) bool { want = append(want, rowID); return true })
		if len(got) != len(want) {
			t.Fatalf("step %d: ranged scan saw %d rows, full scan %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: row %d = %d, want %d", step, i, got[i], want[i])
			}
		}
	}
	// Out-of-bounds and early-stop behavior.
	p.ScanRange(-5, 3, func(rowID uint64, _ []byte) bool {
		if rowID > 3 {
			t.Fatalf("negative lo leaked row %d", rowID)
		}
		return true
	})
	n := 0
	p.ScanRange(0, p.Slots(), func(uint64, []byte) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d rows", n)
	}
}

// LiveSlots, taken in vectors of any size from any resume point, yields
// the live slots of the range in order, and never a tombstone.
func TestPartitionLiveSlots(t *testing.T) {
	s := kvSchema()
	p := NewPartition(s, 4)
	for i := int64(1); i <= 200; i++ {
		if err := p.Insert(uint64(i), tuple(s, i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rid := range []uint64{1, 64, 65, 130, 200} {
		p.Delete(rid)
	}
	collect := func(lo, hi, vec int) []int32 {
		var got []int32
		out := make([]int32, vec)
		for from := lo; from < hi; {
			var n int
			n, from = p.LiveSlots(hi, from, out)
			got = append(got, out[:n]...)
		}
		return got
	}
	for _, rg := range [][2]int{{0, 200}, {3, 131}, {64, 128}, {190, 1000}} {
		lo, hi := rg[0], rg[1]
		var want []int32
		for slot := lo; slot < hi && slot < p.Slots(); slot++ {
			if _, live := p.Get(uint64(slot + 1)); live { // row i sits in slot i-1
				want = append(want, int32(slot))
			}
		}
		for _, vec := range []int{1, 7, 64, 1024} {
			if got := collect(lo, hi, vec); !slices.Equal(got, want) {
				t.Fatalf("[%d,%d) vectors of %d: slots %v, want %v", lo, hi, vec, got, want)
			}
		}
	}
	for _, slot := range collect(0, 200, 16) {
		if got := s.GetInt64(p.Tuple(slot), 0); got != int64(slot)+1 {
			t.Fatalf("slot %d holds key %d", slot, got)
		}
	}
}

func TestPartitionDeleteReusesSlot(t *testing.T) {
	s := kvSchema()
	p := NewPartition(s, 4)
	p.Insert(1, tuple(s, 1, 1))
	p.Insert(2, tuple(s, 2, 2))
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	if p.Live() != 1 || p.Slots() != 2 {
		t.Fatalf("Live=%d Slots=%d", p.Live(), p.Slots())
	}
	// Tombstone skipped by scan.
	p.Scan(func(rowID uint64, _ []byte) bool {
		if rowID == 1 {
			t.Fatal("tombstoned row visible in scan")
		}
		return true
	})
	// New insert reuses the freed slot.
	p.Insert(3, tuple(s, 3, 3))
	if p.Slots() != 2 {
		t.Fatalf("Slots after reuse = %d, want 2", p.Slots())
	}
}

func TestPartitionErrors(t *testing.T) {
	s := kvSchema()
	p := NewPartition(s, 4)
	p.Insert(1, tuple(s, 1, 1))
	if err := p.Insert(1, tuple(s, 1, 2)); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if err := p.Delete(99); err == nil {
		t.Fatal("delete of unknown row accepted")
	}
	if err := p.UpdateField(99, 0, []byte{1}); err == nil {
		t.Fatal("update of unknown row accepted")
	}
	if err := p.UpdateField(1, 100, []byte{1}); err == nil {
		t.Fatal("out-of-bounds update accepted")
	}
}

func TestPartitionFieldUpdate(t *testing.T) {
	s := kvSchema()
	p := NewPartition(s, 4)
	p.Insert(1, tuple(s, 7, 100))
	patch := make([]byte, 8)
	binary.LittleEndian.PutUint64(patch, 200)
	if err := p.UpdateField(1, uint32(s.Offset(1)), patch); err != nil {
		t.Fatal(err)
	}
	tup, _ := p.Get(1)
	if s.GetInt64(tup, 1) != 200 {
		t.Fatalf("after patch v = %d", s.GetInt64(tup, 1))
	}
	if s.GetInt64(tup, 0) != 7 {
		t.Fatalf("patch clobbered key: %d", s.GetInt64(tup, 0))
	}
}

func mkEntry(vid uint64, kind proplog.Kind, rowID uint64, off uint32, data []byte) proplog.Entry {
	return proplog.Entry{VID: vid, Kind: kind, RowID: rowID, Offset: off, Size: uint32(len(data)), Data: data}
}

func TestApplyPendingThreeSteps(t *testing.T) {
	s := kvSchema()
	r := NewReplica(4)
	r.CreateTable(s, col0Key(s), 64)

	// Two workers, interleaved VIDs (like paper Fig. 4).
	w0 := proplog.Batch{Worker: 0, Tables: []proplog.TableBatch{{Table: 1, Entries: []proplog.Entry{
		mkEntry(1, proplog.Insert, 10, 0, tuple(s, 10, 100)),
		mkEntry(3, proplog.Update, 10, uint32(s.Offset(1)), u64le(111)),
		mkEntry(5, proplog.Insert, 30, 0, tuple(s, 30, 300)),
	}}}}
	w1 := proplog.Batch{Worker: 1, Tables: []proplog.TableBatch{{Table: 1, Entries: []proplog.Entry{
		mkEntry(2, proplog.Insert, 20, 0, tuple(s, 20, 200)),
		mkEntry(4, proplog.Delete, 20, 0, nil),
		mkEntry(6, proplog.Insert, 40, 0, tuple(s, 40, 400)),
	}}}}
	r.ApplyUpdates([]proplog.Batch{w0, w1}, 6)

	// Apply only up to VID 5: insert 40 (VID 6) must stay pending.
	st, err := r.ApplyPending(5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 5 {
		t.Fatalf("applied %d entries, want 5", st.Entries)
	}
	tbl := r.Table(1)
	if tbl.Live() != 2 {
		t.Fatalf("live = %d, want 2 (rows 10,30)", tbl.Live())
	}
	tup, ok := tbl.Partitions[tbl.partitionOf(10)].Get(10)
	if !ok || s.GetInt64(tup, 1) != 111 {
		t.Fatalf("row 10 = %v,%v; want v=111", tup, ok)
	}
	if _, ok := tbl.Partitions[tbl.partitionOf(20)].Get(20); ok {
		t.Fatal("deleted row 20 present")
	}
	if r.AppliedVID() != 5 {
		t.Fatalf("AppliedVID = %d", r.AppliedVID())
	}

	// Second round picks up the leftover.
	st2, err := r.ApplyPending(6)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Entries != 1 {
		t.Fatalf("second round applied %d, want 1", st2.Entries)
	}
	if tbl.Live() != 3 {
		t.Fatalf("live = %d, want 3", tbl.Live())
	}
	ts := st.PerTable[1]
	if ts == nil || ts.Inserted != 3 || ts.Updated != 1 || ts.Deleted != 1 {
		t.Fatalf("per-table stats = %+v", ts)
	}
}

func u64le(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

// Property: applying a random but well-formed update stream (spread over
// random worker buffers) leaves the replica equal to a reference map.
func TestApplyMatchesReference(t *testing.T) {
	s := kvSchema()
	type action struct {
		Row    uint8
		Val    int64
		Op     uint8
		Worker uint8
	}
	f := func(actions []action, parts uint8) bool {
		r := NewReplica(int(parts%7) + 1)
		r.CreateTable(s, col0Key(s), 64)
		ref := make(map[uint64]int64)
		buffers := map[int]*proplog.Buffer{}
		vid := uint64(0)
		for _, a := range actions {
			row := uint64(a.Row%32) + 1
			w := int(a.Worker % 4)
			buf := buffers[w]
			if buf == nil {
				buf = proplog.NewBuffer(w)
				buffers[w] = buf
			}
			vid++
			_, exists := ref[row]
			switch a.Op % 3 {
			case 0: // insert if absent
				if exists {
					continue
				}
				buf.Add(1, mkEntry(vid, proplog.Insert, row, 0, tuple(s, int64(row), a.Val)))
				ref[row] = a.Val
			case 1: // update if present
				if !exists {
					continue
				}
				buf.Add(1, mkEntry(vid, proplog.Update, row, uint32(s.Offset(1)), u64le(a.Val)))
				ref[row] = a.Val
			default: // delete if present
				if !exists {
					continue
				}
				buf.Add(1, mkEntry(vid, proplog.Delete, row, 0, nil))
				delete(ref, row)
			}
		}
		var batches []proplog.Batch
		for _, buf := range buffers {
			if buf.Len() > 0 {
				batches = append(batches, buf.Take())
			}
		}
		r.ApplyUpdates(batches, vid)
		if _, err := r.ApplyPending(vid); err != nil {
			return false
		}
		tbl := r.Table(1)
		if tbl.Live() != len(ref) {
			return false
		}
		ok := true
		for _, p := range tbl.Partitions {
			p.Scan(func(rowID uint64, tup []byte) bool {
				want, exists := ref[rowID]
				if !exists || s.GetInt64(tup, 1) != want {
					ok = false
					return false
				}
				return true
			})
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fakePrimary counts syncs and feeds updates to the replica on demand.
type fakePrimary struct {
	mu      sync.Mutex
	replica *Replica
	vid     uint64
	schema  *storage.Schema
	syncs   int
}

func (f *fakePrimary) SyncUpdates() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	return f.vid
}

// commitRow simulates an OLTP commit whose update is pushed immediately.
func (f *fakePrimary) commitRow(row uint64, val int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.vid++
	b := proplog.NewBuffer(0)
	b.Add(1, mkEntry(f.vid, proplog.Insert, row, 0, tuple(f.schema, int64(row), val)))
	batch := b.Take()
	f.replica.ApplyUpdates([]proplog.Batch{batch}, f.vid)
}

func TestSchedulerBatchesAndApplies(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	r.CreateTable(s, col0Key(s), 64)
	p := &fakePrimary{replica: r, schema: s}

	// Query counts live rows at execution time.
	run := func(queries []int, snap uint64) []int64 {
		out := make([]int64, len(queries))
		for i := range queries {
			out[i] = int64(r.Table(1).Live())
		}
		return out
	}
	sched := NewScheduler(r, p, run)
	sched.Start()
	defer sched.Close()

	p.commitRow(1, 10)
	p.commitRow(2, 20)
	got, err := sched.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("query saw %d rows, want 2 (updates not applied before batch)", got)
	}
	p.commitRow(3, 30)
	got, _ = sched.Query(0)
	if got != 3 {
		t.Fatalf("second query saw %d rows, want 3", got)
	}
	if sched.Stats().Queries.Load() != 2 {
		t.Fatalf("queries counted = %d", sched.Stats().Queries.Load())
	}
}

// ApplyTime holds one sample per round that applied something; the
// rounds that found nothing — every freshness barrier of a quiet primary
// runs one — are counted apart, so the histogram's mean is the cost of
// applying, not of asking.
func TestApplyTimeSkipsEmptyRounds(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	r.CreateTable(s, col0Key(s), 64)
	p := &fakePrimary{replica: r, schema: s}
	sched := NewScheduler(r, p, func(queries []int, _ uint64) []int { return queries })
	sched.Start()
	defer sched.Close()
	st := sched.Stats()

	for i := 0; i < 3; i++ {
		if _, err := sched.Query(i); err != nil {
			t.Fatal(err)
		}
	}
	if n, empty := st.ApplyTime.Count(), st.ApplyRoundsEmpty.Load(); n != 0 || empty < 3 {
		t.Fatalf("three barriers, nothing committed: %d apply-time samples, %d empty rounds; want 0 and at least 3", n, empty)
	}
	p.commitRow(1, 10)
	if _, err := sched.Query(3); err != nil {
		t.Fatal(err)
	}
	if n := st.ApplyTime.Count(); n != 1 {
		t.Fatalf("one commit applied: %d apply-time samples, want 1", n)
	}
	if got := st.AppliedEntries.Load(); got != 1 {
		t.Fatalf("applied entries = %d, want 1", got)
	}

	// Under a paced load beside a busy primary next to no round is empty:
	// the loop sees the kick of the push a forced sync causes only after
	// the round that forced it has taken the push, and that kick starts
	// nothing. (Before,
	// it started a round that found nothing: half of all rounds.)
	f := newFlushFixture(t)
	f.ask(t, 4, 20*batchHeartbeat) // two sessions of two tiles each
	st = f.sched.Stats()
	barrier, push, other := st.rounds()
	if rounds, empty := barrier+push+other, st.ApplyRoundsEmpty.Load(); rounds < 10 || 20*empty > rounds {
		t.Fatalf("%d of %d rounds found nothing to apply, want at most 5%% of at least ten", empty, rounds)
	}
}

func TestSchedulerSharedBatch(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	r.CreateTable(s, col0Key(s), 64)
	p := &fakePrimary{replica: r, schema: s}

	var mu sync.Mutex
	batchSizes := []int{}
	block := make(chan struct{})
	run := func(queries []int, snap uint64) []int64 {
		mu.Lock()
		batchSizes = append(batchSizes, len(queries))
		mu.Unlock()
		if len(batchSizes) == 1 {
			<-block // hold the first batch so others queue up
		}
		return make([]int64, len(queries))
	}
	sched := NewScheduler(r, p, run)
	sched.Start()
	defer sched.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); sched.Query(0) }() // first batch (size 1)
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); sched.Query(0) }()
	}
	time.Sleep(50 * time.Millisecond)
	close(block) // release; queued 5 must run as one batch
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(batchSizes) != 2 || batchSizes[0] != 1 || batchSizes[1] != 5 {
		t.Fatalf("batch sizes = %v, want [1 5]", batchSizes)
	}
}

func TestSchedulerClose(t *testing.T) {
	s := kvSchema()
	r := NewReplica(1)
	r.CreateTable(s, col0Key(s), 4)
	sched := NewScheduler(r, StaticPrimary(0), func(q []int, _ uint64) []int {
		return make([]int, len(q))
	})
	sched.Start()
	sched.Close()
	if _, err := sched.Query(1); err != ErrSchedulerClosed {
		t.Fatalf("after close: %v", err)
	}
}

func TestLoadTuple(t *testing.T) {
	s := kvSchema()
	r := NewReplica(3)
	r.CreateTable(s, col0Key(s), 16)
	for i := uint64(1); i <= 9; i++ {
		if err := r.LoadTuple(1, i, tuple(s, int64(i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if r.Table(1).Live() != 9 {
		t.Fatalf("loaded %d rows", r.Table(1).Live())
	}
	if err := r.LoadTuple(99, 1, tuple(s, 1, 1)); err == nil {
		t.Fatal("load into unknown table accepted")
	}
	// Rows must be spread across partitions.
	nonEmpty := 0
	for _, p := range r.Table(1).Partitions {
		if p.Live() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("partitioning degenerate: %d non-empty partitions", nonEmpty)
	}
}

func TestApplyDivergenceSurfaced(t *testing.T) {
	s := kvSchema()
	r := NewReplica(1)
	r.CreateTable(s, col0Key(s), 4)
	b := proplog.NewBuffer(0)
	b.Add(1, mkEntry(1, proplog.Update, 42, 0, u64le(1))) // row 42 never inserted
	batch := b.Take()
	r.ApplyUpdates([]proplog.Batch{batch}, 1)
	if _, err := r.ApplyPending(1); err == nil {
		t.Fatal("divergent update stream must error")
	}
}
