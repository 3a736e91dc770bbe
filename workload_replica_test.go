package batchdb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestWorkloadReplicaIsolation exercises the paper's §7 extension: a
// second replica dedicated to long-running (offline) queries. A slow
// query monopolizing the offline class's batch schedule must not delay
// queries on the online class, and both classes must see consistent
// snapshots fed by the same update stream.
func TestWorkloadReplicaIsolation(t *testing.T) {
	f := newFixture(t, Config{OLTPWorkers: 2, OLAPWorkers: 2, PushPeriod: 10 * time.Millisecond})
	f.load(t, 200)
	loadLedger(t, f.db, ledgerRows)
	if err := f.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.db.Close()

	offline, err := f.db.AttachWorkloadReplica(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer offline.Close()

	// Both classes see the bootstrap state.
	online, _ := f.db.Query(f.totalQuery())
	off, err := offline.Query(f.totalQuery())
	if err != nil || off.Err != nil {
		t.Fatal(err, off.Err)
	}
	if online.Values[0] != off.Values[0] {
		t.Fatalf("classes diverge at bootstrap: %f vs %f", online.Values[0], off.Values[0])
	}

	// Fresh updates reach both classes.
	for i := 0; i < 40; i++ {
		if r := f.db.Exec("deposit", depositArgs(uint64(i%200)+1, 5)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	want := 200*100 + 40*5.0
	online, _ = f.db.Query(f.totalQuery())
	off, _ = offline.Query(f.totalQuery())
	if online.Values[0] != want || off.Values[0] != want {
		t.Fatalf("freshness broken: online %f offline %f want %f", online.Values[0], off.Values[0], want)
	}

	// A deliberately slow offline query — it scans the large ledger and
	// makes eight lookups per row at random keys — must not block online
	// queries: the online class completes many queries while the offline
	// batch is still running.
	slow := &Query{Name: "ledger", Driver: ledgerID, Aggs: []AggSpec{{Kind: Count}}}
	for c := 1; c <= 4; c++ {
		slow.Probes = append(slow.Probes,
			Probe{Table: ledgerID, From: -1, Key: []KeyField{{Col: c}}},
			Probe{Table: ledgerID, From: -1, Key: []KeyField{{Col: c, MulCol: c%4 + 1, Mod: ledgerRows}}})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	slowDone := make(chan struct{})
	var slowRes Result
	go func() {
		defer wg.Done()
		slowRes, _ = offline.Query(slow)
		close(slowDone)
	}()

	completedWhileSlow := 0
	for i := 0; i < 10; i++ {
		res, err := f.db.Query(f.totalQuery())
		if err != nil || res.Err != nil {
			t.Fatal(err, res.Err)
		}
		select {
		case <-slowDone:
		default:
			completedWhileSlow++
		}
	}
	wg.Wait()
	if completedWhileSlow == 0 {
		t.Fatal("online class made no progress while offline class ran a long query")
	}
	if slowRes.Err != nil || slowRes.Rows != ledgerRows {
		t.Fatalf("the offline query: %d rows (err %v), want %d", slowRes.Rows, slowRes.Err, ledgerRows)
	}
}

// ledgerID is the table loadLedger creates: ledger(id, p1, p2, p3, p4),
// keyed by id, each p a random permutation of the ids.
const (
	ledgerID   TableID = 2
	ledgerRows         = 200000
)

func loadLedger(t *testing.T, db *DB, n int) {
	t.Helper()
	cols := []Column{{Name: "id", Type: Int64}}
	for c := 1; c <= 4; c++ {
		cols = append(cols, Column{Name: fmt.Sprintf("p%d", c), Type: Int64})
	}
	s := NewSchema(ledgerID, "ledger", cols, []int{0})
	tbl, err := db.CreateTable(s, func(tup []byte) uint64 { return uint64(s.GetInt64(tup, 0)) },
		TableOptions{Replicate: true, CapacityHint: n})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	perms := make([][]int, 4)
	for c := range perms {
		perms[c] = rng.Perm(n)
	}
	for i := 0; i < n; i++ {
		tup := s.NewTuple()
		s.PutInt64(tup, 0, int64(i))
		for c := range perms {
			s.PutInt64(tup, c+1, int64(perms[c][i]))
		}
		if err := tbl.Load(tup); err != nil {
			t.Fatal(err)
		}
	}
}
