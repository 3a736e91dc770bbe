package batchdb

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"
)

// accountsFixture defines a replicated accounts table with transfer and
// deposit procedures — the quickstart shape.
type accountsFixture struct {
	db     *DB
	tbl    *Table
	schema *Schema
}

func newFixture(t *testing.T, cfg Config) *accountsFixture {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema := NewSchema(1, "accounts", []Column{
		{Name: "id", Type: Int64},
		{Name: "balance", Type: Int64},
		{Name: "region", Type: Int64},
	}, []int{0})
	tbl, err := db.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, TableOptions{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	f := &accountsFixture{db: db, tbl: tbl, schema: schema}
	if err := db.Register("deposit", f.deposit); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *accountsFixture) deposit(tx *Txn, args []byte) ([]byte, error) {
	id := binary.LittleEndian.Uint64(args)
	amt := int64(binary.LittleEndian.Uint64(args[8:]))
	return nil, tx.Update(f.tbl.OLTP, id, []int{1}, func(tup []byte) {
		f.schema.PutInt64(tup, 1, f.schema.GetInt64(tup, 1)+amt)
	})
}

func (f *accountsFixture) load(t *testing.T, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		tup := f.schema.NewTuple()
		f.schema.PutInt64(tup, 0, int64(i))
		f.schema.PutInt64(tup, 1, 100)
		f.schema.PutInt64(tup, 2, int64(i%3))
		if err := f.tbl.Load(tup); err != nil {
			t.Fatal(err)
		}
	}
}

func depositArgs(id uint64, amt int64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, id)
	binary.LittleEndian.PutUint64(b[8:], uint64(amt))
	return b
}

func (f *accountsFixture) totalQuery() *Query {
	return &Query{
		Name:   "total",
		Driver: 1,
		Aggs:   []AggSpec{SumCol(1)},
	}
}

func TestSingleInterfaceEndToEnd(t *testing.T) {
	f := newFixture(t, Config{OLTPWorkers: 2, OLAPWorkers: 2})
	f.load(t, 100)
	if err := f.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.db.Close()

	// Fresh data visible immediately.
	res, err := f.db.Query(f.totalQuery())
	if err != nil || res.Err != nil {
		t.Fatalf("query: %v / %v", err, res.Err)
	}
	if res.Values[0] != 100*100 {
		t.Fatalf("initial total = %f", res.Values[0])
	}

	// Transactions flow to analytics.
	for i := 0; i < 50; i++ {
		if r := f.db.Exec("deposit", depositArgs(uint64(i%100)+1, 10)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	res, _ = f.db.Query(f.totalQuery())
	if res.Values[0] != 100*100+50*10 {
		t.Fatalf("total after deposits = %f (data freshness broken)", res.Values[0])
	}
}

// TestBulkLoadThroughPublicAPI streams rows in through DB.BulkLoadRows
// and verifies they reach the OLAP side like any other committed
// transactions, plus the façade's error paths.
func TestBulkLoadThroughPublicAPI(t *testing.T) {
	f := newFixture(t, Config{OLTPWorkers: 2, OLAPWorkers: 2, IngestChunkRows: 64})
	f.load(t, 10)

	if _, err := f.db.BulkLoadRows(f.tbl.ID(), nil); err == nil {
		t.Fatal("BulkLoad before Start must fail")
	}
	if err := f.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.db.Close()
	if _, err := f.db.BulkLoadRows(99, nil); err == nil {
		t.Fatal("BulkLoad on unknown table must fail")
	}

	const n = 500
	rows := make([][]byte, n)
	for i := range rows {
		tup := f.schema.NewTuple()
		f.schema.PutInt64(tup, 0, int64(1000+i))
		f.schema.PutInt64(tup, 1, 7)
		rows[i] = tup
	}
	rep, err := f.db.BulkLoadRows(f.tbl.ID(), rows)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != n || rep.Chunks != (n+63)/64 {
		t.Fatalf("report: %d rows in %d chunks", rep.Rows, rep.Chunks)
	}
	// The library has one ingest SLO: the governor's 1.5x of the
	// measured baseline.
	if want := time.Duration(1.5 * float64(rep.BaselineP99)); rep.BaselineP99 <= 0 || rep.Bound != want {
		t.Fatalf("bound %v, want 1.5 x baseline %v = %v", rep.Bound, rep.BaselineP99, want)
	}
	// The loaded rows are analytics-visible behind the freshness barrier.
	res, err := f.db.Query(f.totalQuery())
	if err != nil || res.Err != nil {
		t.Fatalf("query: %v / %v", err, res.Err)
	}
	if want := float64(10*100 + n*7); res.Values[0] != want {
		t.Fatalf("total after bulk load = %f, want %f", res.Values[0], want)
	}
}

// TestWrongWidthInsertAborts: a procedure that inserts a tuple of the
// wrong width aborts instead of committing a row the replica cannot
// store, so the apply round behind the next query does not fail (it
// used to panic the scheduler). Loading and bulk loading refuse such a
// tuple the same way.
func TestWrongWidthInsertAborts(t *testing.T) {
	f := newFixture(t, Config{OLTPWorkers: 2, OLAPWorkers: 2})
	f.load(t, 10)
	wide := make([]byte, 2*f.schema.TupleSize())
	if err := f.tbl.Load(wide); err == nil {
		t.Fatal("Load accepted a tuple of twice the width")
	}
	if err := f.db.Register("wide", func(tx *Txn, _ []byte) ([]byte, error) {
		return nil, tx.Insert(f.tbl.OLTP, append([]byte(nil), wide...))
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.db.Close()
	if r := f.db.Exec("wide", nil); r.Err == nil {
		t.Fatal("a tuple of twice the width committed")
	}
	if _, err := f.db.BulkLoadRows(f.tbl.ID(), [][]byte{wide}); err == nil {
		t.Fatal("BulkLoadRows accepted a tuple of twice the width")
	}
	if r := f.db.Exec("deposit", depositArgs(1, 5)); r.Err != nil {
		t.Fatal(r.Err)
	}
	res, err := f.db.Query(f.totalQuery())
	if err != nil || res.Err != nil {
		t.Fatalf("query after the refused inserts: %v / %v", err, res.Err)
	}
	if want := float64(10*100 + 5); res.Values[0] != want {
		t.Fatalf("total = %f, want %f", res.Values[0], want)
	}
}

func TestConcurrentHybridClients(t *testing.T) {
	f := newFixture(t, Config{OLTPWorkers: 2, OLAPWorkers: 2, PushPeriod: 10 * time.Millisecond})
	f.load(t, 50)
	if err := f.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.db.Close()

	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r := f.db.Exec("deposit", depositArgs(uint64((c*100+i)%50)+1, 1))
				if r.Err != nil && !errors.Is(r.Err, ErrConflict) {
					t.Errorf("deposit: %v", r.Err)
					return
				}
			}
		}(c)
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := f.db.Query(f.totalQuery())
				if err != nil || res.Err != nil {
					t.Errorf("query: %v / %v", err, res.Err)
					return
				}
				// Total must always be a consistent snapshot: initial
				// plus an integral number of deposits.
				if int64(res.Values[0])%1 != 0 || res.Values[0] < 50*100 {
					t.Errorf("implausible total %f", res.Values[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDisableReplication(t *testing.T) {
	f := newFixture(t, Config{DisableReplication: true})
	f.load(t, 10)
	if err := f.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.db.Close()
	if r := f.db.Exec("deposit", depositArgs(1, 5)); r.Err != nil {
		t.Fatal(r.Err)
	}
	if _, err := f.db.Query(f.totalQuery()); err == nil {
		t.Fatal("Query succeeded with replication disabled")
	}
}

func TestWALRecoveryThroughPublicAPI(t *testing.T) {
	// No checkpoint is taken, so recovery replays every logged command
	// on top of the reloaded seed.
	cfg := Config{DataDir: t.TempDir(), CheckpointEveryVIDs: -1, CheckpointEveryWALBytes: -1}

	f := newFixture(t, cfg)
	f.load(t, 10)
	if err := f.db.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if r := f.db.Exec("deposit", depositArgs(uint64(i%10)+1, 7)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if err := f.db.Close(); err != nil {
		t.Fatal(err)
	}

	f2 := newFixture(t, cfg)
	f2.load(t, 10)
	info, err := f2.db.RecoverDataDir()
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointVID != 0 || info.Replayed != 20 {
		t.Fatalf("recovery = %+v, want 20 commands replayed above no checkpoint", info)
	}
	if err := f2.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer f2.db.Close()
	res, _ := f2.db.Query(f2.totalQuery())
	if res.Values[0] != 10*100+20*7 {
		t.Fatalf("recovered total = %f", res.Values[0])
	}
}

func TestRemoteReplicaNode(t *testing.T) {
	f := newFixture(t, Config{PushPeriod: 10 * time.Millisecond})
	f.load(t, 200)
	if err := f.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.db.Close()

	addr, err := f.db.ServeReplicas("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := ConnectReplica(addr, ReplicaNodeConfig{Partitions: 2, Workers: 2},
		[]ReplicaTable{{Schema: f.schema}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	res, err := node.Query(f.totalQuery())
	if err != nil || res.Err != nil {
		t.Fatalf("remote query: %v / %v", err, res.Err)
	}
	if res.Values[0] != 200*100 {
		t.Fatalf("remote bootstrap total = %f", res.Values[0])
	}

	// Updates reach the remote node.
	for i := 0; i < 30; i++ {
		if r := f.db.Exec("deposit", depositArgs(uint64(i%200)+1, 2)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	res, _ = node.Query(f.totalQuery())
	if res.Values[0] != 200*100+30*2 {
		t.Fatalf("remote freshness broken: %f", res.Values[0])
	}

	// A second replica node can attach (elasticity).
	node2, err := ConnectReplica(addr, ReplicaNodeConfig{}, []ReplicaTable{{Schema: f.schema}})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	res2, _ := node2.Query(f.totalQuery())
	if res2.Values[0] != 200*100+30*2 {
		t.Fatalf("second replica total = %f", res2.Values[0])
	}
}

func TestErrorsBeforeStart(t *testing.T) {
	db, _ := Open(Config{})
	if r := db.Exec("x", nil); r.Err == nil {
		t.Fatal("Exec before Start succeeded")
	}
	if _, err := db.Query(&Query{}); err == nil {
		t.Fatal("Query before Start succeeded")
	}
	schema := NewSchema(1, "t", []Column{{Name: "a", Type: Int64}}, []int{0})
	if _, err := db.CreateTable(schema, func([]byte) uint64 { return 0 }, TableOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(schema, func([]byte) uint64 { return 0 }, TableOptions{}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if err := db.Start(); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	if _, err := db.CreateTable(NewSchema(2, "u", []Column{{Name: "a", Type: Int64}}, []int{0}),
		func([]byte) uint64 { return 0 }, TableOptions{}); err == nil {
		t.Fatal("CreateTable after Start accepted")
	}
}
