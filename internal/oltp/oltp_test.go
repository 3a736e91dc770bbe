package oltp

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batchdb/internal/mvcc"
	"batchdb/internal/proplog"
	"batchdb/internal/storage"
	"batchdb/internal/wal"
)

// kvSchema builds a simple key/value table and registers get/put/add/del
// procedures on a fresh engine.
func newKVEngine(t *testing.T, cfg Config) (*Engine, *mvcc.Table) {
	t.Helper()
	store := mvcc.NewStore()
	schema := storage.NewSchema(1, "kv", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
	}, []int{0})
	tbl := store.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 1024)
	e, err := New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerKVProcs(e, tbl)
	return e, tbl
}

func registerKVProcs(e *Engine, tbl *mvcc.Table) {
	schema := tbl.Schema
	e.Register("put", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		k := int64(binary.LittleEndian.Uint64(args))
		v := int64(binary.LittleEndian.Uint64(args[8:]))
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, k)
		schema.PutInt64(tup, 1, v)
		if err := tx.Insert(tbl, tup); err != nil {
			return nil, err
		}
		return nil, nil
	})
	e.Register("add", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		k := int64(binary.LittleEndian.Uint64(args))
		d := int64(binary.LittleEndian.Uint64(args[8:]))
		return nil, tx.Update(tbl, uint64(k), []int{1}, func(tup []byte) {
			schema.PutInt64(tup, 1, schema.GetInt64(tup, 1)+d)
		})
	})
	e.Register("del", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		k := int64(binary.LittleEndian.Uint64(args))
		return nil, tx.Delete(tbl, uint64(k))
	})
	e.Register("get", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		k := int64(binary.LittleEndian.Uint64(args))
		tup, ok := tx.Get(tbl, uint64(k))
		if !ok {
			return nil, mvcc.ErrNotFound
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(schema.GetInt64(tup, 1)))
		return out, nil
	})
}

func kvArgs(k, v int64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, uint64(k))
	binary.LittleEndian.PutUint64(b[8:], uint64(v))
	return b
}

func TestExecCommit(t *testing.T) {
	e, _ := newKVEngine(t, Config{Workers: 2})
	e.Start()
	defer e.Close()

	r := e.Exec("put", kvArgs(1, 100))
	if r.Err != nil {
		t.Fatalf("put: %v", r.Err)
	}
	if r.CommitVID == 0 {
		t.Fatal("put got no commit VID")
	}
	g := e.Exec("get", kvArgs(1, 0))
	if g.Err != nil {
		t.Fatalf("get: %v", g.Err)
	}
	if v := int64(binary.LittleEndian.Uint64(g.Payload)); v != 100 {
		t.Fatalf("get = %d", v)
	}
	if g.CommitVID != 0 {
		t.Fatal("read-only get allocated a commit VID")
	}
}

func TestExecUnknownProc(t *testing.T) {
	e, _ := newKVEngine(t, Config{Workers: 1})
	e.Start()
	defer e.Close()
	if r := e.Exec("nope", nil); !errors.Is(r.Err, ErrUnknownProc) {
		t.Fatalf("err = %v", r.Err)
	}
}

func TestConcurrentClients(t *testing.T) {
	e, _ := newKVEngine(t, Config{Workers: 4})
	e.Start()
	defer e.Close()

	if r := e.Exec("put", kvArgs(1, 0)); r.Err != nil {
		t.Fatal(r.Err)
	}
	const clients, per = 8, 50
	var applied atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Retry on conflict, like a TPC-C driver.
				for {
					r := e.Exec("add", kvArgs(1, 1))
					if r.Err == nil {
						applied.Add(1)
						break
					}
					if !errors.Is(r.Err, mvcc.ErrConflict) {
						t.Errorf("add: %v", r.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	g := e.Exec("get", kvArgs(1, 0))
	if v := int64(binary.LittleEndian.Uint64(g.Payload)); v != clients*per {
		t.Fatalf("counter = %d, want %d (applied %d)", v, clients*per, applied.Load())
	}
	if e.Stats().Committed.Load() < clients*per {
		t.Fatalf("committed = %d", e.Stats().Committed.Load())
	}
}

// captureSink records pushed batches.
type captureSink struct {
	mu      sync.Mutex
	upTo    uint64
	entries []proplog.Entry
	pushes  int
}

func (c *captureSink) ApplyUpdates(batches []proplog.Batch, upTo uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.upTo = upTo
	c.pushes++
	for _, b := range batches {
		for _, tb := range b.Tables {
			c.entries = append(c.entries, tb.Entries...)
		}
	}
}

func (c *captureSink) snapshot() (uint64, []proplog.Entry, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.upTo, append([]proplog.Entry(nil), c.entries...), c.pushes
}

func TestUpdateExtractionAndSync(t *testing.T) {
	sink := &captureSink{}
	e, _ := newKVEngine(t, Config{Workers: 2, FieldSpecific: true, PushPeriod: time.Hour})
	e.SetSink(sink)
	e.Start()
	defer e.Close()

	e.Exec("put", kvArgs(1, 10)) // insert
	e.Exec("add", kvArgs(1, 5))  // field update
	e.Exec("put", kvArgs(2, 20))
	e.Exec("del", kvArgs(2, 0)) // delete

	covered := e.SyncUpdates()
	if covered != e.LatestVID() || covered != 4 {
		t.Fatalf("covered = %d, latest = %d", covered, e.LatestVID())
	}
	_, entries, _ := sink.snapshot()
	if len(entries) != 4 {
		t.Fatalf("extracted %d entries, want 4: %+v", len(entries), entries)
	}
	kinds := map[proplog.Kind]int{}
	for _, en := range entries {
		kinds[en.Kind]++
	}
	if kinds[proplog.Insert] != 2 || kinds[proplog.Update] != 1 || kinds[proplog.Delete] != 1 {
		t.Fatalf("kind histogram = %v", kinds)
	}
	for _, en := range entries {
		if en.Kind == proplog.Update {
			if en.Offset != 8 || en.Size != 8 {
				t.Fatalf("field-specific update = %+v, want offset 8 size 8", en)
			}
			if int64(binary.LittleEndian.Uint64(en.Data)) != 15 {
				t.Fatalf("update payload = %d, want 15", binary.LittleEndian.Uint64(en.Data))
			}
		}
	}
}

func TestWholeTupleExtraction(t *testing.T) {
	sink := &captureSink{}
	e, tbl := newKVEngine(t, Config{Workers: 1, FieldSpecific: false, PushPeriod: time.Hour})
	e.SetSink(sink)
	e.Start()
	defer e.Close()

	e.Exec("put", kvArgs(1, 10))
	e.Exec("add", kvArgs(1, 5))
	e.SyncUpdates()
	_, entries, _ := sink.snapshot()
	for _, en := range entries {
		if en.Kind == proplog.Update {
			if int(en.Size) != tbl.Schema.TupleSize() || en.Offset != 0 {
				t.Fatalf("whole-tuple update = %+v", en)
			}
		}
	}
}

func TestPeriodicPush(t *testing.T) {
	sink := &captureSink{}
	e, _ := newKVEngine(t, Config{Workers: 1, PushPeriod: 20 * time.Millisecond})
	e.SetSink(sink)
	e.Start()
	defer e.Close()

	e.Exec("put", kvArgs(1, 1))
	deadline := time.After(2 * time.Second)
	for {
		_, entries, _ := sink.snapshot()
		if len(entries) == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("periodic push never delivered the update")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// A forced sync pushes and restarts the push period, so a replica that
// syncs more often than the period gets exactly one push per sync — the
// period never fires in between — and the period takes over again, by
// itself, once the syncs stop.
func TestSyncCadenceSupersedesPushPeriod(t *testing.T) {
	const period, cadence, syncs = 200 * time.Millisecond, 50 * time.Millisecond, 8
	sink := &captureSink{}
	e, _ := newKVEngine(t, Config{Workers: 1, PushPeriod: period})
	e.SetSink(sink)
	e.Start()
	defer e.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a writer, so that every boundary has something to push
		defer wg.Done()
		for k := int64(1); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			e.Exec("put", kvArgs(k, k))
			time.Sleep(time.Millisecond)
		}
	}()
	e.SyncUpdates() // restarts the period
	_, _, before := sink.snapshot()
	prev, widest := time.Now(), time.Duration(0)
	for i := 0; i < syncs; i++ {
		time.Sleep(cadence)
		e.SyncUpdates()
		now := time.Now()
		widest, prev = max(widest, now.Sub(prev)), now
	}
	if _, _, after := sink.snapshot(); widest >= period {
		t.Logf("two syncs came %v apart on this host: the period was entitled to fire, nothing to assert", widest)
	} else if after-before != syncs {
		t.Fatalf("%d pushes under %d syncs at most %v apart with a %v push period, want one per sync", after-before, syncs, widest, period)
	}
	_, _, last := sink.snapshot()
	deadline := time.After(10 * period)
	for {
		if _, _, n := sink.snapshot(); n > last {
			break
		}
		select {
		case <-deadline:
			t.Fatal("the push period did not fire after the syncs stopped")
		case <-time.After(period / 10):
		}
	}
	close(stop)
	wg.Wait()
}

func TestReplicatedTableFilter(t *testing.T) {
	sink := &captureSink{}
	e, _ := newKVEngine(t, Config{
		Workers: 1, PushPeriod: time.Hour,
		Replicated: map[storage.TableID]bool{99: true}, // not our table
	})
	e.SetSink(sink)
	e.Start()
	defer e.Close()
	e.Exec("put", kvArgs(1, 1))
	e.SyncUpdates()
	if _, entries, _ := sink.snapshot(); len(entries) != 0 {
		t.Fatalf("filtered table leaked %d entries", len(entries))
	}
}

func TestSyncWithoutLoad(t *testing.T) {
	sink := &captureSink{}
	e, _ := newKVEngine(t, Config{Workers: 1, PushPeriod: time.Hour})
	e.SetSink(sink)
	e.Start()
	defer e.Close()
	// Sync with no transactions at all must return promptly.
	done := make(chan uint64, 1)
	go func() { done <- e.SyncUpdates() }()
	select {
	case v := <-done:
		if v != 0 {
			t.Fatalf("covered = %d, want 0", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SyncUpdates hung on idle engine")
	}
}

func TestRecovery(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.OpenDir(dir, wal.DirOptions{StartVID: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := newKVEngine(t, Config{Workers: 2})
	e.SetLog(log)
	e.Start()
	e.Exec("put", kvArgs(1, 10))
	e.Exec("put", kvArgs(2, 20))
	e.Exec("add", kvArgs(1, 5))
	e.Exec("del", kvArgs(2, 0))
	e.Exec("add", kvArgs(1, 1))
	want := int64(16)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh engine + store, replay the log.
	e2, tbl2 := newKVEngine(t, Config{Workers: 2})
	n, err := wal.ReplayDir(dir, 0, func(r wal.Record) error { return ReplayRecord(e2, r) })
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if n != 5 {
		t.Fatalf("replayed %d commands, want 5", n)
	}
	ro := e2.Store().BeginRO()
	defer ro.Release()
	tup, ok := ro.Get(tbl2, 1)
	if !ok {
		t.Fatal("row 1 missing after recovery")
	}
	if v := tbl2.Schema.GetInt64(tup, 1); v != want {
		t.Fatalf("recovered value = %d, want %d", v, want)
	}
	if _, ok := ro.Get(tbl2, 2); ok {
		t.Fatal("deleted row resurrected by recovery")
	}
	ro.Release()

	// Replay keeps every version (later records re-read at their logged
	// ReadVID); Start reclaims what it left, since no worker's collector
	// will ever be told about those chains.
	if got := tbl2.NumChains(); got != 2 {
		t.Fatalf("chains after replay = %d, want 2 (row 2's deletion not yet collected)", got)
	}
	e2.Start()
	defer e2.Close()
	if got := tbl2.NumChains(); got != 1 {
		t.Fatalf("chains after Start = %d, want 1", got)
	}
	n = 0
	tbl2.ScanChains(func(c *mvcc.Chain) bool {
		for r := c.Head(); r != nil; r = r.Older() {
			n++
		}
		return true
	})
	if n != 1 {
		t.Fatalf("versions after Start = %d, want 1", n)
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	e, _ := newKVEngine(t, Config{Workers: 1})
	e.Start()
	e.Close()
	if r := e.Exec("put", kvArgs(1, 1)); !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("after close: %v", r.Err)
	}
}
