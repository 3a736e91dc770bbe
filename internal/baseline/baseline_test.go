package baseline

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batchdb/internal/chbench"
	"batchdb/internal/mvcc"
	"batchdb/internal/olap/exec"
	"batchdb/internal/replica"
	"batchdb/internal/tpcc"
)

func newBaselineDB(t *testing.T) *tpcc.DB {
	t.Helper()
	db := tpcc.NewDB(tpcc.SmallScale(1))
	if err := tpcc.Generate(db, 8); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestTxnAndQueryCorrectness(t *testing.T) {
	db := newBaselineDB(t)
	for _, policy := range []Policy{FairShared, OLTPPriority} {
		e := New(db, 2, policy)
		drv := tpcc.NewDriver(db.Scale, 3)
		for i := 0; i < 50; i++ {
			proc, args := drv.Next()
			r := e.ExecTxn(proc, args)
			if r.Err != nil && !errors.Is(r.Err, tpcc.ErrRollback) && !errors.Is(r.Err, mvcc.ErrConflict) {
				t.Fatalf("%s/%s: %v", policy, proc, r.Err)
			}
		}
		g := chbench.NewGen(db.Schemas, 5)
		for _, name := range []string{"Q10", "Q3", "Q12"} {
			res := e.Query(g.ByName(name))
			if res.Err != nil {
				t.Fatalf("%s/%s: %v", policy, name, res.Err)
			}
		}
		e.Close()
	}
}

// The baseline query path (MVCC chain scan + index lookups) must agree
// with BatchDB's replica-based executor on the same data.
func TestBaselineAgreesWithReplicaExecutor(t *testing.T) {
	db := newBaselineDB(t)
	rep := chbench.EmptyReplica(db, 2)
	if _, err := replica.LoadLocal(rep, db.Store, chbench.Tables()); err != nil {
		t.Fatal(err)
	}
	eng := exec.NewEngine(rep, 1)
	e := New(db, 1, FairShared)
	defer e.Close()

	g := chbench.NewGen(db.Schemas, 7)
	for _, name := range chbench.QueryNames {
		q := g.ByName(name)
		base := e.Query(q)
		repl := eng.RunBatch([]*exec.Query{q}, 0)[0]
		if base.Err != nil || repl.Err != nil {
			t.Fatalf("%s: errs %v / %v", name, base.Err, repl.Err)
		}
		if base.Rows != repl.Rows {
			t.Fatalf("%s: rows %d != %d", name, base.Rows, repl.Rows)
		}
		for i := range base.Values {
			d := base.Values[i] - repl.Values[i]
			if d > 1e-3 || d < -1e-3 {
				t.Fatalf("%s agg %d: %f != %f", name, i, base.Values[i], repl.Values[i])
			}
		}
	}
}

func TestOLTPPriorityStarvesAnalytics(t *testing.T) {
	db := newBaselineDB(t)
	e := New(db, 1, OLTPPriority)
	defer e.Close()

	// Saturate the single worker with transactions from one goroutine
	// while a query waits.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var committed atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		drv := tpcc.NewDriver(db.Scale, 2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			proc, args := drv.Next()
			if r := e.ExecTxn(proc, args); r.Err == nil {
				committed.Add(1)
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	g := chbench.NewGen(db.Schemas, 9)
	start := time.Now()
	res := e.Query(g.ByName("Q10"))
	queryLatency := time.Since(start)
	close(stop)
	wg.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// With strict OLTP priority the query had to wait for a gap; it
	// cannot have completed instantly relative to per-txn latency.
	if queryLatency <= 0 {
		t.Fatal("implausible query latency")
	}
	if committed.Load() == 0 {
		t.Fatal("no transactions committed during saturation")
	}
}

func TestCloseUnblocksClients(t *testing.T) {
	db := newBaselineDB(t)
	e := New(db, 1, FairShared)
	e.Close()
	if r := e.ExecTxn(tpcc.ProcStockLevel, (&tpcc.StockLevelArgs{WID: 1, DID: 1, Threshold: 10}).Encode()); r.Err == nil {
		t.Fatal("ExecTxn after Close succeeded")
	}
}
