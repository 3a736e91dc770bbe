package oltp

import (
	"errors"
	"sync"
	"testing"
	"time"

	"batchdb/internal/obs"
	"batchdb/internal/olap"
	"batchdb/internal/wal"
)

// failingLog is a CommandLog whose group commit can be made to fail,
// modelling a dead disk or an injected crash.
type failingLog struct {
	mu       sync.Mutex
	appended []wal.Record
	commits  int
	fail     bool
}

func (f *failingLog) Append(r wal.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.appended = append(f.appended, r)
	return nil
}

func (f *failingLog) Commit() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errors.New("disk on fire")
	}
	f.commits++
	return nil
}

func (f *failingLog) Close() error { return nil }

func (f *failingLog) setFail(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = v
}

// A write commit must not be acknowledged before its batch's group
// commit succeeds; when the flush fails the client gets ErrNotDurable
// instead of a success it could act on.
func TestAckAfterGroupCommit(t *testing.T) {
	e, _ := newKVEngine(t, Config{Workers: 2})
	fl := &failingLog{}
	e.SetLog(fl)
	e.Start()
	defer e.Close()

	if r := e.Exec("put", kvArgs(1, 10)); r.Err != nil {
		t.Fatalf("put: %v", r.Err)
	}
	fl.mu.Lock()
	okCommits := fl.commits
	fl.mu.Unlock()
	if okCommits == 0 {
		t.Fatal("success acknowledged before any group commit")
	}

	fl.setFail(true)
	r := e.Exec("put", kvArgs(2, 20))
	if !errors.Is(r.Err, ErrNotDurable) {
		t.Fatalf("failed flush acked as success: %v", r.Err)
	}

	// The engine is stopped after a failed flush: even a read, which a
	// healthy log would not gate, is refused rather than served from
	// state the log may not hold.
	fl.setFail(false)
	if g := e.Exec("get", kvArgs(2, 0)); !errors.Is(g.Err, ErrNotDurable) {
		t.Fatalf("request served after a failed flush: %v", g.Err)
	}
}

// Read-only procedures bypass the log entirely and are acknowledged
// without waiting for any flush.
func TestReadOnlyNotLogged(t *testing.T) {
	e, _ := newKVEngine(t, Config{Workers: 2})
	fl := &failingLog{}
	e.SetLog(fl)
	e.Start()
	defer e.Close()

	e.Exec("put", kvArgs(1, 10))
	fl.setFail(true) // a dead log must not affect reads
	if r := e.Exec("get", kvArgs(1, 0)); r.Err != nil {
		t.Fatalf("get: %v", r.Err)
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for _, rec := range fl.appended {
		if rec.Proc == "get" {
			t.Fatal("read-only procedure reached the command log")
		}
	}
}

// CheckpointVID is a consistent cut: every commit at or below it is
// durable and no transaction spans it.
func TestCheckpointVIDIsBatchBoundary(t *testing.T) {
	e, _ := newKVEngine(t, Config{Workers: 4})
	fl := &failingLog{}
	e.SetLog(fl)
	e.Start()
	defer e.Close()

	const writes = 25
	for i := int64(0); i < writes; i++ {
		if r := e.Exec("put", kvArgs(i+1, i)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	w := e.CheckpointVID()
	if w != writes {
		t.Fatalf("CheckpointVID = %d, want %d (engine idle)", w, writes)
	}
	// Every record up to the cut must already be in the log.
	fl.mu.Lock()
	logged := uint64(0)
	for _, rec := range fl.appended {
		if rec.CommitVID > logged {
			logged = rec.CommitVID
		}
	}
	fl.mu.Unlock()
	if logged < w {
		t.Fatalf("cut %d ahead of logged prefix %d", w, logged)
	}
}

func TestCheckpointVIDOnClosedEngine(t *testing.T) {
	e, _ := newKVEngine(t, Config{Workers: 1})
	e.Start()
	e.Exec("put", kvArgs(1, 1))
	e.Close()
	// Must not hang or panic after close.
	if w := e.CheckpointVID(); w != 1 {
		t.Fatalf("CheckpointVID after close = %d", w)
	}
}

// Records are logged in dense commit-VID order within and across
// batches, which recovery asserts during replay.
func TestLogOrderIsDense(t *testing.T) {
	e, _ := newKVEngine(t, Config{Workers: 4})
	fl := &failingLog{}
	e.SetLog(fl)
	e.Start()
	defer e.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < 20; i++ {
				e.Exec("put", kvArgs(base*100+i, i))
			}
		}(int64(c) + 1)
	}
	wg.Wait()
	e.CheckpointVID() // barrier: all batches logged
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for i, rec := range fl.appended {
		if rec.CommitVID != uint64(i+1) {
			t.Fatalf("log position %d holds VID %d (not dense)", i, rec.CommitVID)
		}
	}
}

// droppingLog keeps the records of every successful group commit and,
// as wal.Manager.Commit does on a write error, drops the pending batch
// when a Commit fails.
type droppingLog struct {
	mu       sync.Mutex
	pend     []wal.Record
	durable  []wal.Record
	failNext bool
}

func (d *droppingLog) Append(r wal.Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pend = append(d.pend, r)
	return nil
}

func (d *droppingLog) Commit() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	pend := d.pend
	d.pend = nil
	if d.failNext {
		d.failNext = false
		return errors.New("short write")
	}
	d.durable = append(d.durable, pend...)
	return nil
}

func (d *droppingLog) Close() error { return nil }

// One failed group commit stops the engine: nothing after it is
// acknowledged or pushed, so the log stays gap-free and recovery holds
// every acknowledged commit, and no replica gets ahead of the log. The
// stop is visible: Err returns the failure and batchdb_oltp_log_failed
// reads 1.
func TestLogFailureStopsTheEngine(t *testing.T) {
	e, tbl := newKVEngine(t, Config{Workers: 2, PushPeriod: time.Hour})
	log := &droppingLog{}
	rep := olap.NewReplica(2)
	rep.CreateTable(tbl.Schema, 16)
	e.SetLog(log)
	e.SetSink(rep)
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	e.Start()
	logFailed := func() float64 {
		for _, s := range reg.Samples() {
			if s.Name == "batchdb_oltp_log_failed" {
				return s.Value
			}
		}
		t.Fatal("batchdb_oltp_log_failed is not exported")
		return 0
	}
	// sync is the OLAP dispatcher's freshness barrier: fetch the latest
	// snapshot VID from the primary and apply up to it.
	sync := func() {
		if _, err := rep.ApplyPending(e.SyncUpdates()); err != nil {
			t.Fatal(err)
		}
	}

	acked := map[int64]int64{} // key -> value every acknowledged commit implies
	run := func(proc string, k, v int64) error {
		r := e.Exec(proc, kvArgs(k, v))
		if r.Err == nil {
			switch proc {
			case "put":
				acked[k] = v
			case "add":
				acked[k] += v
			}
		}
		return r.Err
	}
	if err := run("put", 1, 10); err != nil {
		t.Fatalf("put before the failure: %v", err)
	}
	sync()
	if err, g := e.Err(), logFailed(); err != nil || g != 0 {
		t.Fatalf("before the failure: Err %v, log_failed %v; want nil and 0", err, g)
	}

	log.mu.Lock()
	log.failNext = true
	log.mu.Unlock()
	if err := run("put", 2, 20); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("put in the failed batch: %v, want ErrNotDurable", err)
	}
	if err, g := e.Err(), logFailed(); !errors.Is(err, ErrNotDurable) || g != 1 {
		t.Fatalf("after the failure: Err %v, log_failed %v; want ErrNotDurable and 1", err, g)
	}
	// More traffic after the one transient failure.
	var after []error
	for _, op := range []struct {
		proc string
		k, v int64
	}{{"add", 1, 5}, {"put", 3, 30}, {"get", 1, 0}, {"put", 4, 40}} {
		after = append(after, run(op.proc, op.k, op.v))
	}
	sync()
	e.Close()

	// The last durable VID ends the log's gap-free prefix: recovery
	// cannot replay past a missing VID.
	var lastDurable uint64
	for _, r := range log.durable {
		if r.CommitVID != lastDurable+1 {
			break
		}
		lastDurable = r.CommitVID
	}
	if got := rep.AppliedVID(); got > lastDurable {
		t.Fatalf("replica applied VID %d, past the last durable VID %d", got, lastDurable)
	}
	if _, _, ok := rep.Table(tbl.Schema.ID).FindPK(2); ok {
		t.Fatal("replica serves the row of the batch the log lost")
	}

	// Recovery: replay the log into a fresh engine.
	e2, tbl2 := newKVEngine(t, Config{Workers: 1})
	defer e2.Close()
	for _, r := range log.durable {
		if err := ReplayRecord(e2, r); err != nil {
			t.Fatalf("recovery: %v", err)
		}
	}
	tx := e2.Store().BeginRO()
	defer tx.Abort()
	for k, v := range acked {
		tup, ok := tx.Get(tbl2, uint64(k))
		if !ok {
			t.Fatalf("acknowledged key %d lost in recovery", k)
		}
		if got := tbl2.Schema.GetInt64(tup, 1); got != v {
			t.Fatalf("key %d recovered as %d, acknowledged %d", k, got, v)
		}
	}
	for i, err := range after {
		if !errors.Is(err, ErrNotDurable) {
			t.Errorf("request %d after the failure: %v, want ErrNotDurable", i, err)
		}
	}
}
