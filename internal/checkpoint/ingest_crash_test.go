package checkpoint_test

// Crash-matrix coverage for the bulk-ingest path: at every crash point
// in the durability layer, a governed-path ingest load (chunked through
// the bulk stored procedure) runs alongside TPC-C traffic and
// background checkpoints, the process dies, and recovery must show
// (a) every acknowledged chunk fully present — acks are issued after
// group commit, so they are durability promises — and (b) every chunk
// all-or-nothing: a crash can never leave half a chunk behind.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batchdb/internal/checkpoint"
	"batchdb/internal/crash"
	"batchdb/internal/ingest"
	"batchdb/internal/mvcc"
	"batchdb/internal/oltp"
	"batchdb/internal/storage"
	"batchdb/internal/tpcc"
)

const (
	ingestCrashTableID  = 42
	ingestCrashChunkLen = 256
)

func ingestCrashSchema() *storage.Schema {
	return storage.NewSchema(ingestCrashTableID, "bulk", []storage.Column{
		{Name: "id", Type: storage.Int64},
		{Name: "val", Type: storage.Int64},
	}, []int{0})
}

// newIngestCrashEngine builds a TPC-C instance with the bulk table and
// ingest procedure installed. GC stays off so the pre-crash store can
// be read at the recovered watermark as the oracle.
func newIngestCrashEngine(t *testing.T, seed bool) (*tpcc.DB, *oltp.Engine) {
	t.Helper()
	db := tpcc.NewDB(tpcc.SmallScale(1))
	if seed {
		if err := tpcc.Generate(db, 1); err != nil {
			t.Fatal(err)
		}
	}
	schema := ingestCrashSchema()
	db.Store.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 4096)
	e, err := oltp.New(db.Store, oltp.Config{Workers: 2, GCEveryTxns: -1})
	if err != nil {
		t.Fatal(err)
	}
	tpcc.RegisterProcs(e, db, false)
	ingest.RegisterProc(e)
	return db, e
}

func TestIngestCrashRecoveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("ingest crash matrix is not short")
	}
	for _, pt := range crash.Points {
		pt := pt
		t.Run(string(pt), func(t *testing.T) {
			t.Parallel()
			runIngestCrashPoint(t, pt)
		})
	}
}

func runIngestCrashPoint(t *testing.T, pt crash.Point) {
	dir := t.TempDir()
	schema := ingestCrashSchema()
	db1, e1 := newIngestCrashEngine(t, true)
	inj := &crash.Injector{}
	st1, _, err := checkpoint.Boot(e1, checkpoint.BootConfig{
		Dir: dir, SegmentBytes: harnessSegBytes, Sync: true, Inj: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	e1.Start()

	inj.Arm(crash.Plan{Point: pt, Countdown: 2, TearFrac: 0.5})

	var maxAcked atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Interactive TPC-C alongside the load.
	for c := 0; c < 2; c++ {
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
				case errors.Is(r.Err, oltp.ErrNotDurable):
					return
				default:
					t.Errorf("unexpected txn error: %v", r.Err)
					return
				}
			}
		}(int64(c)*977 + 42)
	}

	// The bulk load: an endless deterministic stream, chunked through
	// the ingest loader (ungoverned — the crash matrix stresses
	// durability, not admission). ackedChunks is only appended by the
	// loader goroutine and read after wg.Wait.
	var ackedChunks []ingest.ChunkAck
	wg.Add(1)
	go func() {
		defer wg.Done()
		l := ingest.NewLoader(e1, ingestCrashTableID, ingest.Config{
			ChunkRows:       ingestCrashChunkLen,
			DisableGovernor: true,
			OnChunk: func(a ingest.ChunkAck) {
				ackedChunks = append(ackedChunks, a)
				for cur := maxAcked.Load(); a.VID > cur; cur = maxAcked.Load() {
					if maxAcked.CompareAndSwap(cur, a.VID) {
						break
					}
				}
			},
		})
		next := int64(0)
		_, err := l.Load(func() ([]byte, bool) {
			// Only stop at chunk boundaries so every submitted chunk is
			// full — the torn-chunk scan below relies on it.
			if next%ingestCrashChunkLen == 0 {
				select {
				case <-stop:
					return nil, false
				default:
				}
			}
			tup := schema.NewTuple()
			schema.PutInt64(tup, 0, next)
			schema.PutInt64(tup, 1, next*3)
			next++
			return tup, true
		})
		if err != nil && !errors.Is(err, oltp.ErrNotDurable) && !errors.Is(err, oltp.ErrClosed) {
			t.Errorf("unexpected load error: %v", err)
		}
	}()

	// Checkpoint driver, as in the base matrix.
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

	deadline := time.Now().Add(30 * time.Second)
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
	origStore := e1.Store()
	_ = e1.Close()

	// --- restart ---
	has, err := checkpoint.DirHasCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, e2 := newIngestCrashEngine(t, !has)
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
		t.Fatalf("recovered watermark %d < highest acknowledged commit %d", w, acked)
	}
	want := checkpoint.SumAt(origStore, w)
	got := checkpoint.SumAt(e2.Store(), w)
	if !checkpoint.SumsEqual(got, want) {
		t.Fatalf("state divergence after crash at %s (watermark %d)", pt, w)
	}

	// Pin the two ingest-specific guarantees. Every acknowledged chunk
	// survives in full; every chunk — acked or not — is all-or-nothing
	// (an unacked chunk may have committed just before the crash and
	// lost only its ack, but it can never be torn).
	tx := e2.Store().BeginRO()
	defer tx.Abort()
	tbl2 := e2.Store().Table(ingestCrashTableID)
	for _, a := range ackedChunks {
		for r := 0; r < a.Rows; r++ {
			key := uint64(a.Index*ingestCrashChunkLen + r)
			tup, ok := tx.Get(tbl2, key)
			if !ok {
				t.Fatalf("crash at %s: acked chunk %d (vid %d) lost row %d", pt, a.Index, a.VID, key)
			}
			if v := schema.GetInt64(tup, 1); v != int64(key)*3 {
				t.Fatalf("crash at %s: acked row %d has val %d", pt, key, v)
			}
		}
	}
	// Scan forward past the acked prefix until the first fully absent
	// chunk; each chunk boundary must be clean.
	for ci := 0; ; ci++ {
		present := 0
		for r := 0; r < ingestCrashChunkLen; r++ {
			if _, ok := tx.Get(tbl2, uint64(ci*ingestCrashChunkLen+r)); ok {
				present++
			}
		}
		if present == 0 {
			break
		}
		if present != ingestCrashChunkLen {
			t.Fatalf("crash at %s: chunk %d torn: %d/%d rows present", pt, ci, present, ingestCrashChunkLen)
		}
	}
}
