// Crash-injection recovery harness: for every crash point in the
// durability I/O layer, run a TPC-C-loaded instance under concurrent
// load with background checkpointing, kill it at that point (leaving
// exactly the bytes a dying process would leave, including torn
// writes), recover a fresh instance from the same directory, and assert
// the restored state matches the acknowledged commits exactly and holds
// everything the instance pushed to its replicas.
package checkpoint_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batchdb/internal/checkpoint"
	"batchdb/internal/crash"
	"batchdb/internal/mvcc"
	"batchdb/internal/oltp"
	"batchdb/internal/proplog"
	"batchdb/internal/tpcc"
)

// harnessSegBytes keeps WAL segments tiny so rotation and truncation
// happen constantly during the short run.
const harnessSegBytes = 4 << 10

// newTPCCEngine builds a TPC-C instance. GC is disabled so the original
// store keeps every version: after the simulated crash the harness reads
// it AT the recovered watermark to compare states.
func newTPCCEngine(t *testing.T, seed bool) (*tpcc.DB, *oltp.Engine) {
	t.Helper()
	return newTPCCEngineGC(t, seed, -1)
}

func newTPCCEngineGC(t *testing.T, seed bool, gcEveryTxns int) (*tpcc.DB, *oltp.Engine) {
	t.Helper()
	db := tpcc.NewDB(tpcc.SmallScale(1))
	if seed {
		if err := tpcc.Generate(db, 1); err != nil {
			t.Fatal(err)
		}
	}
	e, err := oltp.New(db.Store, oltp.Config{Workers: 2, GCEveryTxns: gcEveryTxns})
	if err != nil {
		t.Fatal(err)
	}
	tpcc.RegisterProcs(e, db, false)
	return db, e
}

// pushWatermark is an update sink that keeps the highest watermark it
// was pushed: every update at or below it may have been served by a
// replica.
type pushWatermark struct{ max atomic.Uint64 }

func (p *pushWatermark) ApplyUpdates(_ []proplog.Batch, upTo uint64) {
	for cur := p.max.Load(); upTo > cur && !p.max.CompareAndSwap(cur, upTo); cur = p.max.Load() {
	}
}

func TestCrashRecoveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is not short")
	}
	for _, pt := range crash.Points {
		pt := pt
		t.Run(string(pt), func(t *testing.T) {
			t.Parallel()
			runCrashPoint(t, pt)
		})
	}
}

func runCrashPoint(t *testing.T, pt crash.Point) {
	dir := t.TempDir()
	db1, e1 := newTPCCEngine(t, true)
	inj := &crash.Injector{}
	st1, _, err := checkpoint.Boot(e1, checkpoint.BootConfig{
		Dir: dir, SegmentBytes: harnessSegBytes, Sync: true, Inj: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	pushed := &pushWatermark{}
	e1.AddSink(pushed)
	e1.Start()

	// Concurrent TPC-C clients; each records the highest commit VID that
	// was ACKNOWLEDGED to it (Err == nil). Everything at or below
	// maxAcked must survive recovery.
	var maxAcked atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const clients = 3
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			drv := tpcc.NewDriver(db1.Scale, seed)
			for i := 0; i < 5000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				proc, args := drv.Next()
				r := e1.Exec(proc, args)
				switch {
				case r.Err == nil:
					for cur := maxAcked.Load(); r.CommitVID > cur; cur = maxAcked.Load() {
						if maxAcked.CompareAndSwap(cur, r.CommitVID) {
							break
						}
					}
				case errors.Is(r.Err, tpcc.ErrRollback), errors.Is(r.Err, mvcc.ErrConflict):
					// Expected aborts: nothing was acknowledged.
				case errors.Is(r.Err, oltp.ErrNotDurable):
					return // the process died under us
				default:
					t.Errorf("unexpected txn error: %v", r.Err)
					return
				}
			}
		}(int64(c)*977 + 42)
	}
	// Checkpoint driver: a tight loop standing in for the background
	// runner so the checkpoint/manifest/truncate crash points are reached
	// quickly and deterministically. Each tick also syncs, as a replica's
	// freshness barrier does, so updates are pushed throughout the run.
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		var last uint64
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if inj.Crashed() {
				return
			}
			e1.SyncUpdates()
			if w := e1.LatestVID(); w-last >= 15 {
				if _, err := st1.Checkpoint(e1); err != nil {
					if errors.Is(err, crash.ErrCrashed) {
						return
					}
					if !errors.Is(err, checkpoint.ErrNoProgress) {
						t.Errorf("checkpoint: %v", err)
						return
					}
				}
				last = w
			}
		}
	}()

	// Arm only once a push has carried a nonzero watermark, so that the
	// served ⇒ durable check below has something served to hold. Fire on
	// the second hit from then, with half of any in-flight buffer
	// reaching the file — a torn write right in the middle of a frame.
	deadline := time.Now().Add(30 * time.Second)
	for pushed.max.Load() == 0 {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			<-ckptDone
			t.Fatal("no push carried a nonzero watermark")
		}
		time.Sleep(time.Millisecond)
	}
	inj.Arm(crash.Plan{Point: pt, Countdown: 2, TearFrac: 0.5})
	for !inj.Crashed() {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			<-ckptDone
			t.Fatalf("crash point %s never fired", pt)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	<-ckptDone
	acked := maxAcked.Load()
	origLatest := e1.LatestVID()
	origStore := e1.Store()
	// The simulated process is dead: nothing may touch the directory
	// again (Close on the crashed log fails; ignore it). The in-memory
	// store survives as the oracle. Close makes the engine's last push.
	_ = e1.Close()
	served := pushed.max.Load()

	// --- restart ---
	has, err := checkpoint.DirHasCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Seed is regenerated (identically) only when no checkpoint covers
	// it, exactly as a real operator restart would.
	db2, e2 := newTPCCEngine(t, !has)
	st2, info, err := checkpoint.Boot(e2, checkpoint.BootConfig{
		Dir: dir, SegmentBytes: harnessSegBytes, Sync: true,
	})
	if err != nil {
		t.Fatalf("recovery after crash at %s: %v", pt, err)
	}
	defer e2.Close()
	defer st2.StopRunner()

	w := info.WatermarkVID
	if w < acked {
		t.Fatalf("recovered watermark %d < highest acknowledged commit %d: acked transactions lost", w, acked)
	}
	if w > origLatest {
		t.Fatalf("recovered watermark %d beyond anything executed (%d)", w, origLatest)
	}
	if served == 0 {
		t.Fatalf("no push carried a nonzero watermark before the crash at %s: served ⇒ durable is vacuous", pt)
	}
	if served > w {
		t.Fatalf("pushed watermark %d > recovered watermark %d: a replica may have served updates the log lost", served, w)
	}
	if got := uint64(info.Replayed); got != w-info.CheckpointVID {
		t.Fatalf("replayed %d records, want the tail %d (watermark %d - checkpoint %d)",
			got, w-info.CheckpointVID, w, info.CheckpointVID)
	}
	// The recovered state must equal the original state AS OF the
	// recovered watermark, table by table.
	want := checkpoint.SumAt(origStore, w)
	got := checkpoint.SumAt(e2.Store(), w)
	if !checkpoint.SumsEqual(got, want) {
		t.Fatalf("state divergence after crash at %s (watermark %d):\n got %v\nwant %v", pt, w, got, want)
	}

	// The recovered instance must be live: it accepts and logs new work.
	e2.Start()
	drv := tpcc.NewDriver(db2.Scale, 7)
	committed := 0
	for i := 0; i < 50 && committed == 0; i++ {
		proc, args := drv.Next()
		r := e2.Exec(proc, args)
		if r.Err == nil && r.CommitVID > 0 {
			if r.CommitVID <= w {
				t.Fatalf("post-recovery commit VID %d not above watermark %d", r.CommitVID, w)
			}
			committed++
		}
	}
	if committed == 0 {
		t.Fatal("recovered instance committed nothing")
	}
}

// TestRecoveryBoundedByTail demonstrates the tentpole's cost model:
// recovery replays only the WAL tail above the newest checkpoint, not
// the full history, so its work shrinks as checkpoints advance.
func TestRecoveryBoundedByTail(t *testing.T) {
	dir := t.TempDir()
	db1, e1 := newTPCCEngine(t, true)
	st1, _, err := checkpoint.Boot(e1, checkpoint.BootConfig{Dir: dir, SegmentBytes: harnessSegBytes})
	if err != nil {
		t.Fatal(err)
	}
	e1.Start()
	drv := tpcc.NewDriver(db1.Scale, 3)
	run := func(n int) {
		for i := 0; i < n; i++ {
			proc, args := drv.Next()
			r := e1.Exec(proc, args)
			if r.Err != nil && !errors.Is(r.Err, tpcc.ErrRollback) && !errors.Is(r.Err, mvcc.ErrConflict) {
				t.Fatalf("txn: %v", r.Err)
			}
		}
	}
	run(300)
	info, err := st1.Checkpoint(e1)
	if err != nil {
		t.Fatal(err)
	}
	run(40)
	tail := e1.LatestVID() - info.VID
	st1.StopRunner()
	e1.Close()

	_, e2 := newTPCCEngine(t, false)
	st2, rinfo, err := checkpoint.Boot(e2, checkpoint.BootConfig{Dir: dir, SegmentBytes: harnessSegBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	defer st2.StopRunner()
	if rinfo.CheckpointVID != info.VID {
		t.Fatalf("recovered from vid %d, want checkpoint %d", rinfo.CheckpointVID, info.VID)
	}
	if uint64(rinfo.Replayed) != tail {
		t.Fatalf("replayed %d, want only the tail %d (history is %d)", rinfo.Replayed, tail, e2.LatestVID())
	}
}

// TestCheckpointsUnderLiveGC is the crash matrix's blind spot: that
// harness keeps every version so that it can read the original store in
// the past, which also hides any version the checkpointer needs and
// garbage collection takes. Here GC runs as eagerly as it can (every
// commit) beside a tight checkpoint loop; a fresh instance booted from
// the newest checkpoint plus the WAL tail must replay cleanly and equal
// the original at its final watermark.
func TestCheckpointsUnderLiveGC(t *testing.T) {
	dir := t.TempDir()
	db1, e1 := newTPCCEngineGC(t, true, 1)
	st1, _, err := checkpoint.Boot(e1, checkpoint.BootConfig{Dir: dir, SegmentBytes: harnessSegBytes})
	if err != nil {
		t.Fatal(err)
	}
	e1.Start()

	txns := 2500
	if testing.Short() {
		txns = 600
	}
	var clients sync.WaitGroup
	for c := 0; c < 3; c++ {
		clients.Add(1)
		go func(seed int64) {
			defer clients.Done()
			drv := tpcc.NewDriver(db1.Scale, seed)
			for i := 0; i < txns; i++ {
				proc, args := drv.Next()
				if r := e1.Exec(proc, args); r.Err != nil && !errors.Is(r.Err, tpcc.ErrRollback) && !errors.Is(r.Err, mvcc.ErrConflict) {
					t.Errorf("txn: %v", r.Err)
					return
				}
			}
		}(int64(c)*977 + 42)
	}
	stop, ckptDone := make(chan struct{}), make(chan struct{})
	checkpoints := 0
	go func() {
		defer close(ckptDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st1.Checkpoint(e1); err == nil {
				checkpoints++
			} else if !errors.Is(err, checkpoint.ErrNoProgress) {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	clients.Wait()
	close(stop)
	<-ckptDone
	w := e1.LatestVID()
	want := checkpoint.SumAt(e1.Store(), w)
	st1.StopRunner()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if checkpoints < 3 {
		t.Fatalf("only %d checkpoints completed beside the load", checkpoints)
	}

	_, e2 := newTPCCEngineGC(t, false, 1)
	st2, info, err := checkpoint.Boot(e2, checkpoint.BootConfig{Dir: dir, SegmentBytes: harnessSegBytes})
	if err != nil {
		t.Fatalf("recovery from a checkpoint taken under GC: %v", err)
	}
	defer e2.Close()
	defer st2.StopRunner()
	if info.WatermarkVID != w || info.CheckpointVID == 0 {
		t.Fatalf("recovered to %d from checkpoint %d, want watermark %d from a checkpoint", info.WatermarkVID, info.CheckpointVID, w)
	}
	if got := checkpoint.SumAt(e2.Store(), w); !checkpoint.SumsEqual(got, want) {
		t.Fatalf("recovered state differs from the original at watermark %d:\n got %v\nwant %v", w, got, want)
	}
}
