package chbench

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"batchdb/internal/mvcc"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/oltp"
	"batchdb/internal/tpcc"
)

// TestCompressionParityAcrossWorkers proves the compressed-block
// predicate kernels never change results: every CH query must return
// the rows and aggregates of a reference replica built without zone maps
// or encoded vectors, at 1, 4 and NumCPU workers, on a replica whose
// encoded vectors are exercised in both lifecycle states — freshly built
// at activation and re-encoded through a TPC-C update burst (inserts,
// field patches and deletes with slot recycling, then ReencodeDirty
// inside ApplyPending). The reference is fed by the same primary as a
// second sink and applied to the same VID; it evaluates every
// declarative predicate per tuple on raw rows, so any divergence is a
// kernel bug.
func TestCompressionParityAcrossWorkers(t *testing.T) {
	db := tpcc.NewDB(tpcc.SmallScale(2))
	if err := tpcc.Generate(db, 41); err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	const morsel = 512 // block == morsel: every scanned morsel can vectorize
	rep.EnableZoneMaps(morsel)
	rep.EnableCompression()
	raw, err := NewReplica(db, 4)
	if err != nil {
		t.Fatal(err)
	}

	e, err := oltp.New(db.Store, oltp.Config{
		Workers: 2, PushPeriod: time.Hour,
		Replicated: tpcc.ReplicatedTables(), FieldSpecific: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tpcc.RegisterProcs(e, db, true) // constant-size: deletes flow too
	e.SetSink(rep)
	e.AddSink(raw)
	e.Start()
	defer e.Close()

	g := NewGen(db.Schemas, 11)
	batch := make([]*exec.Query, len(QueryNames))
	for i, name := range QueryNames {
		batch[i] = g.ByName(name)
	}
	// Queries zone maps cannot prune are where the vectors do all the
	// work: an equality and an IN-set on ol_quantity (1..10, present in
	// every block, so RangeMayMatch never disproves a block but the
	// bitmap kernels decide every tuple).
	ols := db.Schemas.OrderLine
	sumQty := exec.AggSpec{Kind: exec.Sum, Value: func(d []byte, _ [][]byte) float64 {
		return float64(ols.GetInt64(d, tpcc.OLQuantity))
	}}
	batch = append(batch,
		&exec.Query{
			Name:   "qtyEq",
			Driver: tpcc.TOrderLine,
			Where:  []exec.Pred{exec.CmpInt(tpcc.OLQuantity, exec.EQ, 5)},
			Aggs:   []exec.AggSpec{{Kind: exec.Count}, sumQty},
		},
		&exec.Query{
			Name:   "qtyIn",
			Driver: tpcc.TOrderLine,
			Where:  []exec.Pred{exec.InInt(tpcc.OLQuantity, 9, 2, 7)}, // unsorted: InInt must sort
			Aggs:   []exec.AggSpec{{Kind: exec.Count}, sumQty},
		})

	// Registration pass: record synopsis interest, then activate and
	// encode in one quiesced sweep (as the scheduler's apply prologue
	// would).
	reg := exec.NewEngine(rep, 2)
	reg.MorselTuples = morsel
	reg.RunBatch(batch, 0)
	rep.ActivateSynopses()

	compare := func(label string, want, got []exec.Result, qs []*exec.Query) {
		t.Helper()
		for i, q := range qs {
			if want[i].Err != nil || got[i].Err != nil {
				t.Fatalf("%s %s: errs %v %v", label, q.Name, want[i].Err, got[i].Err)
			}
			if got[i].Rows != want[i].Rows {
				t.Fatalf("%s %s: rows %d (vectorized) != %d (tuple-at-a-time)",
					label, q.Name, got[i].Rows, want[i].Rows)
			}
			for j := range want[i].Values {
				if !parityClose(got[i].Values[j], want[i].Values[j]) {
					t.Fatalf("%s %s agg %d: %f != %f",
						label, q.Name, j, got[i].Values[j], want[i].Values[j])
				}
			}
		}
	}

	check := func(stage string, qs []*exec.Query, covered uint64) {
		t.Helper()
		ref := exec.NewEngine(raw, 1)
		ref.MorselTuples = morsel

		var vectorized uint64
		for _, w := range []int{1, 4, runtime.NumCPU()} {
			vec := exec.NewEngine(rep, w)
			vec.MorselTuples = morsel
			var st olap.SchedulerStats
			vec.AttachStats(&st)
			compare(fmt.Sprintf("%s batch workers=%d", stage, w),
				ref.RunBatch(qs, covered), vec.RunBatch(qs, covered), qs)
			for _, q := range qs {
				one := []*exec.Query{q}
				compare(fmt.Sprintf("%s single workers=%d", stage, w),
					ref.RunBatch(one, covered), vec.RunBatch(one, covered), one)
			}
			vectorized += st.ExecBlocksVectorized.Load()
		}
		if vectorized == 0 {
			t.Fatalf("%s: no morsels vectorized — parity check is vacuous", stage)
		}
	}

	check("activated", batch, 0)

	// Update burst with deletes and slot recycling, then parity on the
	// re-encoded vectors.
	drv := tpcc.NewDriver(db.Scale, 11)
	for i := 0; i < 500; i++ {
		proc, args := drv.Next()
		for {
			r := e.Exec(proc, args)
			if r.Err == nil || errors.Is(r.Err, tpcc.ErrRollback) {
				break
			}
			if !errors.Is(r.Err, mvcc.ErrConflict) {
				t.Fatalf("%s: %v", proc, r.Err)
			}
		}
	}
	covered := e.SyncUpdates()
	for _, r := range []*olap.Replica{rep, raw} {
		if _, err := r.ApplyPending(covered); err != nil {
			t.Fatal(err)
		}
	}
	check("maintained", batch, covered)
}
