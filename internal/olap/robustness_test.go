package olap

import (
	"strings"
	"sync"
	"testing"
	"time"

	"batchdb/internal/proplog"
)

// Close must be idempotent: a second Close waits for the same shutdown
// instead of panicking on a double channel close.
func TestSchedulerCloseIdempotent(t *testing.T) {
	r := NewReplica(1)
	r.CreateTable(kvSchema(), 16)
	s := NewScheduler(r, StaticPrimary(0), func(qs []int, _ uint64) []int {
		return make([]int, len(qs))
	})
	s.Start()
	s.Close()
	s.Close() // must not panic
	if _, err := s.Query(1); err != ErrSchedulerClosed {
		t.Fatalf("Query after Close = %v, want ErrSchedulerClosed", err)
	}
}

// The scheduler's stats may be read by metric scrapes and benchmark
// reporters while the dispatcher loop writes them; run both
// concurrently under -race.
func TestStatsConcurrentRead(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	r.CreateTable(s, 64)
	sched := NewScheduler(r, StaticPrimary(0), func(qs []int, _ uint64) []int {
		return make([]int, len(qs))
	})
	sched.Start()
	defer sched.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := sched.Stats()
				_ = st.AppliedEntries.Load()
				_ = st.ApplyTime.Snapshot()
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := sched.Query(i); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// A failed apply round must not bump table versions: the shared
// execution engine would otherwise treat a half-applied table as a
// clean new version and cache builds over diverged data.
func TestApplyErrorKeepsVersion(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	tbl := r.CreateTable(s, 16)
	good := proplog.Batch{Worker: 0, Tables: []proplog.TableBatch{{Table: 1, Entries: []proplog.Entry{
		mkEntry(1, proplog.Insert, 1, 0, tuple(s, 1, 10)),
	}}}}
	r.ApplyUpdates([]proplog.Batch{good}, 1)
	if _, err := r.ApplyPending(1); err != nil {
		t.Fatal(err)
	}
	before := tbl.Version()

	bad := proplog.Batch{Worker: 0, Tables: []proplog.TableBatch{{Table: 1, Entries: []proplog.Entry{
		mkEntry(2, proplog.Update, 999, 0, u64le(1)), // unknown key
	}}}}
	r.ApplyUpdates([]proplog.Batch{bad}, 2)
	if _, err := r.ApplyPending(2); err == nil {
		t.Fatal("apply of unknown key succeeded")
	}
	if got := tbl.Version(); got != before {
		t.Fatalf("version bumped on failed round: %d -> %d", before, got)
	}
}

// A step-3 failure, in a round that found nothing pinned and in one that
// started while a reader held a pin. The second waits for the Unpin —
// until then the reader sees the replica exactly as before — and then
// fails like the first: in place, so the error is sticky, the failed
// table's version and the applied VID do not move, and the good entries
// ahead of the bad one have landed. A valid round after it returns the
// same error, takes nothing from the queue and applies nothing.
func TestApplyFailureInPlaceAndUnderPin(t *testing.T) {
	for _, pinned := range []bool{false, true} {
		name := "in-place"
		if pinned {
			name = "under-pin"
		}
		t.Run(name, func(t *testing.T) {
			r := newEqReplica(t, 2, 2, 2, 200)
			before := captureTables(r.Tables())

			// Table 1 gets two good entries in front of the bad one, so the
			// failing round has already mutated whatever it writes to; table 2
			// applies cleanly in the same round.
			s1, s2 := eqSchema(1), eqSchema(2)
			r.ApplyUpdates([]proplog.Batch{{Worker: 0, Tables: []proplog.TableBatch{
				{Table: 1, Entries: []proplog.Entry{
					mkEntry(1, proplog.Insert, 5000, 0, tuple(s1, 5000, 1)),
					mkEntry(2, proplog.Update, 7, uint32(s1.Offset(1)), u64le(99)),
					mkEntry(3, proplog.Update, 999999, uint32(s1.Offset(1)), u64le(1)), // unknown key
				}},
				{Table: 2, Entries: []proplog.Entry{
					mkEntry(4, proplog.Insert, 5000, 0, tuple(s2, 5000, 1)),
				}},
			}}}, 4)
			var st ApplyStats
			var err error
			if pinned {
				pin := r.PinSnapshot()
				done := make(chan struct{})
				go func() {
					defer close(done)
					st, err = r.ApplyPending(4)
				}()
				// The event under test is one that must not happen, so the
				// round gets a fixed time to show it does not wait.
				select {
				case <-done:
					t.Fatal("a round ran while a reader held a pin")
				case <-time.After(20 * time.Millisecond):
				}
				if d := diffStates(before, captureTables(pin.Tables())); d != "" || pin.VID() != 0 {
					t.Fatalf("the pinned reader saw the waiting round (VID %d): %s", pin.VID(), d)
				}
				pin.Unpin()
				<-done
			} else {
				st, err = r.ApplyPending(4)
			}
			if err == nil || !strings.Contains(err.Error(), "eq1") {
				t.Fatalf("apply of unknown key: err = %v, want one naming table eq1", err)
			}
			if st.Entries != 4 {
				t.Fatalf("failed round reported %d entries, want 4", st.Entries)
			}
			if r.applyErr == nil {
				t.Fatal("applyErr not set after a failed round")
			}
			for _, tbl := range r.Tables() {
				if got, want := tbl.Version(), before[tbl.Schema.ID-1].Version; got != want {
					t.Fatalf("table %s version bumped on failed round: %d -> %d", tbl.Schema.Name, want, got)
				}
			}
			if got := r.AppliedVID(); got != 0 {
				t.Fatalf("AppliedVID advanced to %d on a failed round", got)
			}
			// In place means half-applied — which is why the error is sticky:
			// the good entries ahead of the bad one have landed.
			if _, ok := r.Table(1).GetByPK(5000); !ok {
				t.Fatal("the failed round did not run in place")
			}
			if n := r.PinnedSnapshots(); n != 0 {
				t.Fatalf("%d pins outstanding after the round", n)
			}

			failed := captureTables(r.Tables())
			r.ApplyUpdates([]proplog.Batch{{Worker: 0, Tables: []proplog.TableBatch{{Table: 2, Entries: []proplog.Entry{
				mkEntry(5, proplog.Update, 7, uint32(s2.Offset(1)), u64le(42)),
			}}}}}, 5)
			if _, again := r.ApplyPending(5); again != err {
				t.Fatalf("the round after a failure returned %v, want the sticky %v", again, err)
			}
			if d := diffStates(failed, captureTables(r.Tables())); d != "" {
				t.Fatalf("the round after a failure applied work: %s", d)
			}
			if n := pendingEntries(r); n != 1 {
				t.Fatalf("the round after a failure left %d entries queued, want 1", n)
			}
			if got := r.AppliedVID(); got != 0 {
				t.Fatalf("the round after a failure advanced AppliedVID to %d", got)
			}
		})
	}
}

// A staged Reload replaces the replica's contents atomically at the
// next apply round and raises the VID floor, so queued updates the
// snapshot already contains are discarded while later ones still apply.
func TestReloadInstall(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	tbl := r.CreateTable(s, 16)
	for i := int64(1); i <= 5; i++ {
		if err := r.LoadTuple(1, uint64(i), tuple(s, i, i)); err != nil {
			t.Fatal(err)
		}
	}

	rl := r.NewReload()
	for i := int64(100); i <= 102; i++ {
		if err := rl.LoadTuple(1, uint64(i), tuple(s, i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	if rl.Rows() != 3 {
		t.Fatalf("staged rows = %d", rl.Rows())
	}
	r.InstallReload(rl, 10)

	// VID 7 is covered by the snapshot (<= floor 10) and must be
	// discarded; VID 12 is newer and must apply on top of the reload.
	r.ApplyUpdates([]proplog.Batch{{Worker: 0, Tables: []proplog.TableBatch{{Table: 1, Entries: []proplog.Entry{
		mkEntry(7, proplog.Insert, 100, 0, tuple(s, 100, 1000)), // would collide if not dropped
		mkEntry(12, proplog.Insert, 200, 0, tuple(s, 200, 2000)),
	}}}}}, 12)
	st, err := r.ApplyPending(12)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Reloaded {
		t.Fatal("ApplyStats.Reloaded not set")
	}
	if got := tbl.Live(); got != 4 {
		t.Fatalf("rows after reload = %d, want 4 (3 snapshot + 1 live)", got)
	}
	if _, ok := tbl.GetByPK(1); ok {
		t.Fatal("pre-reload row survived the reload")
	}
	if r.AppliedVID() != 12 {
		t.Fatalf("applied VID = %d", r.AppliedVID())
	}

	// An unknown table is rejected at staging time.
	if err := r.NewReload().LoadTuple(99, 1, tuple(s, 1, 1)); err == nil {
		t.Fatal("reload into unknown table accepted")
	}
}

// Update pushes that arrive while a resync snapshot is being staged
// must be buffered in the Reload, not fed to the live pending queue: an
// apply round before the install would lay them over stale data missing
// the outage gap, and the reload would then wipe them while the raised
// floor can never recover them (silent divergence).
func TestReloadBuffersResyncUpdates(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	tbl := r.CreateTable(s, 16)
	// Pre-outage state: rows 1..3 at floor 5.
	for i := int64(1); i <= 3; i++ {
		if err := r.LoadTuple(1, uint64(i), tuple(s, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	r.SetFloor(5)

	// Resync in flight: the snapshot (taken at VID 10) stages row 100
	// while two live pushes arrive — VID 8 is already contained in the
	// snapshot (must be floor-dropped), VID 12 is past it (must survive
	// the install).
	rl := r.NewReload()
	if err := rl.LoadTuple(1, 100, tuple(s, 100, 100)); err != nil {
		t.Fatal(err)
	}
	rl.ApplyUpdates([]proplog.Batch{{Worker: 0, Tables: []proplog.TableBatch{{Table: 1, Entries: []proplog.Entry{
		mkEntry(8, proplog.Insert, 100, 0, tuple(s, 100, 100)), // would collide if not dropped
		mkEntry(12, proplog.Insert, 200, 0, tuple(s, 200, 200)),
	}}}}}, 12)

	// An apply round before the install must see neither the buffered
	// pushes nor their covered watermark.
	if got := r.Covered(); got != 0 {
		t.Fatalf("covered leaked from staged reload: %d", got)
	}
	if _, err := r.ApplyPending(5); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Live(); got != 3 {
		t.Fatalf("buffered resync updates applied onto stale data: live = %d, want 3", got)
	}

	r.InstallReload(rl, 10)
	if got := r.Covered(); got != 12 {
		t.Fatalf("covered after install = %d, want 12", got)
	}
	st, err := r.ApplyPending(12)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Reloaded {
		t.Fatal("ApplyStats.Reloaded not set")
	}
	// Snapshot row 100 plus the VID-12 insert; the VID-8 push and every
	// pre-outage row are gone.
	if got := tbl.Live(); got != 2 {
		t.Fatalf("rows after install = %d, want 2", got)
	}
	if _, ok := tbl.GetByPK(200); !ok {
		t.Fatal("post-snapshot buffered update lost across the reload")
	}
	if _, ok := tbl.GetByPK(1); ok {
		t.Fatal("pre-reload row survived the reload")
	}
}

// Reload rebuilds the partitions' key indexes with the staged rows: old
// keys vanish, staged keys resolve.
func TestReloadRebuildsPKIndex(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	tbl := r.CreateTable(s, 16)
	if err := r.LoadTuple(1, 7, tuple(s, 7, 70)); err != nil {
		t.Fatal(err)
	}
	rl := r.NewReload()
	if err := rl.LoadTuple(1, 8, tuple(s, 8, 80)); err != nil {
		t.Fatal(err)
	}
	r.InstallReload(rl, 5)
	if _, err := r.ApplyPending(5); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.GetByPK(7); ok {
		t.Fatal("stale PK entry survived reload")
	}
	tup, ok := tbl.GetByPK(8)
	if !ok || s.GetInt64(tup, 1) != 80 {
		t.Fatalf("staged PK lookup = %v,%v", tup, ok)
	}
}
