package olap

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

// flushPrimary is a counting fake of the primary that pushes the way the
// real one does: commits queue up on its side and reach the replica when
// a sync forces a flush — whose push, empty or not, kicks the scheduler
// before the sync answers.
type flushPrimary struct {
	mu      sync.Mutex
	replica *Replica
	schema  *storage.Schema
	buf     *proplog.Buffer
	vid     uint64
	syncs   int
}

func newFlushPrimary(r *Replica, s *storage.Schema) *flushPrimary {
	return &flushPrimary{replica: r, schema: s, buf: proplog.NewBuffer(0)}
}

// commit inserts one row.
func (f *flushPrimary) commit() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.commitLocked()
}

func (f *flushPrimary) commitLocked() {
	f.vid++
	f.buf.Add(f.schema.ID, mkEntry(f.vid, proplog.Insert, f.vid, 0, tuple(f.schema, int64(f.vid), 1)))
}

// SyncUpdates flushes. A transaction commits at the boundary the flush
// happens at, so that — as under load — no sync finds nothing new,
// however the test's writer is scheduled.
func (f *flushPrimary) SyncUpdates() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	f.commitLocked()
	var batches []proplog.Batch
	if f.buf.Len() > 0 {
		batches = append(batches, f.buf.Take())
	}
	f.replica.ApplyUpdates(batches, f.vid)
	return f.vid
}

func (f *flushPrimary) counts() (syncs int, vid uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs, f.vid
}

// flushFixture is a scheduler over a flushPrimary whose batches take 5 ms
// and report the floor VID they ran at, with a writer committing a row
// every few tens of microseconds until the test ends.
type flushFixture struct {
	p     *flushPrimary
	sched *Scheduler[int, uint64]
	stop  chan struct{}
	wg    sync.WaitGroup
}

func newFlushFixture(t *testing.T) *flushFixture {
	s := kvSchema()
	r := NewReplica(2)
	r.CreateTable(s, 1024)
	f := &flushFixture{p: newFlushPrimary(r, s), stop: make(chan struct{})}
	f.sched = NewScheduler(r, f.p, func(queries []int, snap uint64) []uint64 {
		time.Sleep(5 * time.Millisecond)
		out := make([]uint64, len(queries))
		for i := range out {
			out[i] = snap
		}
		return out
	})
	f.sched.Start()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			select {
			case <-f.stop:
				return
			default:
			}
			f.p.commit()
			time.Sleep(20 * time.Microsecond)
		}
	}()
	t.Cleanup(func() {
		close(f.stop)
		f.wg.Wait()
		f.sched.Close()
	})
	return f
}

// ask runs sessions closed-loop sessions for the given time. Every answer
// must come from a snapshot at or above the last VID committed before its
// query was submitted — the batch guarantee.
func (f *flushFixture) ask(t *testing.T, sessions int, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	var stale atomic.Int64
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				_, before := f.p.counts()
				snap, err := f.sched.Query(0)
				if err != nil {
					t.Error(err)
					return
				}
				if snap < before {
					stale.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := stale.Load(); n != 0 {
		t.Fatalf("%d answers came from a snapshot below a commit that preceded their query", n)
	}
}

// rounds returns the apply rounds by cause, and how many had a cause
// that is neither a barrier nor a push.
func (st *SchedulerStats) rounds() (barrier, push, other uint64) {
	for c := range st.ApplyRounds {
		switch n := st.ApplyRounds[c].Load(); roundCause(c) {
		case causeBarrier:
			barrier = n
		case causePush:
			push = n
		default:
			other += n
		}
	}
	return barrier, push, other
}

// Sessions that ask concurrently are paced, and the replica no longer
// catches up between their batches: no round runs but barrier and push
// ones, and each batch costs the primary exactly one sync, its barrier
// round's. A sync's own push starts no round of its own
// (TestApplyTimeSkipsEmptyRounds counts the empty ones).
func TestGapRoundsUnderPacedLoad(t *testing.T) {
	f := newFlushFixture(t)
	f.ask(t, 4, 20*batchHeartbeat) // two sessions of two tiles each
	st := f.sched.Stats()
	batches := st.Batches.Load()
	barrier, push, other := st.rounds()
	syncs, _ := f.p.counts()
	t.Logf("%d batches: rounds barrier %d push %d other %d, %d syncs", batches, barrier, push, other, syncs)
	if batches < 10 {
		t.Fatalf("only %d batches in 20 beats", batches)
	}
	if other != 0 {
		t.Fatalf("%d rounds started by neither a barrier nor a push", other)
	}
	if barrier != batches || uint64(syncs) != batches {
		t.Fatalf("%d batches, %d barrier rounds, %d syncs; want one barrier round and one sync per batch", batches, barrier, syncs)
	}
}

// An idle scheduler costs the primary no sync, and a lone session that
// asks, waits and asks again — which is not paced — costs it exactly one
// per batch, with no round but barrier and push ones.
func TestGapRoundsDormantOffTheHeartbeat(t *testing.T) {
	f := newFlushFixture(t)
	time.Sleep(2 * batchHeartbeat) // nobody asks
	if syncs, _ := f.p.counts(); syncs != 0 {
		t.Fatalf("%d syncs with no query submitted", syncs)
	}
	f.ask(t, 1, 3*batchHeartbeat)
	st := f.sched.Stats()
	barrier, _, other := st.rounds()
	syncs, _ := f.p.counts()
	if batches := st.Batches.Load(); other != 0 || barrier != batches || uint64(syncs) != batches {
		t.Fatalf("lone session: %d batches, %d barrier rounds, %d other rounds, %d syncs; want one barrier round and one sync per batch", batches, barrier, other, syncs)
	}
}

// Pushes that arrive while a batch runs start no round until it returns:
// the loop that runs the batch serves them after it, so no round waits
// on the batch's pin, and a push round applies the pushed rows before the
// next batch asks.
func TestPushRoundsWaitForTheBatch(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	r.CreateTable(s, 64)
	p := &fakePrimary{replica: r, schema: s}
	entered, release := make(chan struct{}), make(chan struct{})
	var hold, released sync.Once
	releaseBatch := func() { released.Do(func() { close(release) }) }
	sched := NewScheduler(r, p, func(queries []int, _ uint64) []int {
		sv := r.PinSnapshot()
		defer sv.Unpin()
		live := sv.Table(1).Live()
		hold.Do(func() {
			close(entered)
			<-release
		})
		out := make([]int, len(queries))
		for i := range out {
			out[i] = live
		}
		return out
	})
	sched.Start()
	defer sched.Close()
	defer releaseBatch() // before Close, which waits for the held batch

	held := make(chan int, 1)
	go func() {
		n, err := sched.Query(0)
		if err != nil {
			t.Error(err)
		}
		held <- n
	}()
	<-entered
	pushRounds := &sched.Stats().ApplyRounds[causePush]
	before := pushRounds.Load()
	const rows = 5
	for i := 1; i <= rows; i++ {
		p.commitRow(uint64(i), int64(i))
		time.Sleep(2 * time.Millisecond)
		if n := r.RoundsWaitingOnPins(); n != 0 {
			t.Fatalf("after push %d: %d apply rounds wait on the running batch's pin", i, n)
		}
		if got := pushRounds.Load(); got != before {
			t.Fatalf("after push %d: %d push rounds started while the batch ran", i, got-before)
		}
	}
	releaseBatch()
	if n := <-held; n != 0 {
		t.Fatalf("the held batch saw %d rows, want 0", n)
	}
	for deadline := time.Now().Add(5 * time.Second); r.AppliedVID() < rows; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no push round applied the rows pushed during the batch (applied VID %d)", r.AppliedVID())
		}
	}
	if pushRounds.Load() == before {
		t.Fatal("the rows were applied without a push round")
	}
	if n, err := sched.Query(0); err != nil || n != rows {
		t.Fatalf("the next batch saw %d rows (err %v), want %d", n, err, rows)
	}
}
