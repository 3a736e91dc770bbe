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

// TestPruningParityAcrossWorkers proves zone-map morsel skipping never
// changes results: every CH query must return the rows and aggregates
// of a reference replica built without zone maps, at 1, 4 and NumCPU
// workers. The reference is fed by the same primary as a second sink
// and applied to the same VID, so it reads raw rows with no verdicts
// and no kernels. The pruned replica's synopses are exercised in both
// lifecycle states — freshly activated (exact scan at activation) and
// incrementally maintained through a TPC-C update burst (inserts, field
// patches and deletes, then ResummarizeDirty inside ApplyPending).
func TestPruningParityAcrossWorkers(t *testing.T) {
	db := tpcc.NewDB(tpcc.SmallScale(2))
	if err := tpcc.Generate(db, 33); err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	const morsel = 512 // small blocks: many verdicts per partition
	rep.EnableZoneMaps(morsel)
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

	g := NewGen(db.Schemas, 5)
	batch := make([]*exec.Query, len(QueryNames))
	for i, name := range QueryNames {
		batch[i] = g.ByName(name)
	}
	// The initial TPC-C layout interleaves districts within every slot
	// block, so the random CH parameters rarely disprove whole blocks at
	// this scale. Add one query whose pushed-down predicate selects only
	// orders past the initial per-district o_id range: before the update
	// burst it prunes every block, afterwards only the blocks holding
	// freshly inserted order lines survive.
	tailO := int64(db.Scale.InitialOrdersPerDistrict) + 1
	batch = append(batch, &exec.Query{
		Name:   "tailOrders",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.CmpInt(tpcc.OLOID, exec.GE, tailO)},
		Aggs:   []exec.AggSpec{{Kind: exec.Count}, exec.SumCol(tpcc.OLQuantity)},
	})

	// Registration pass: compiling the batch with pruning enabled
	// records per-column synopsis interest; the next apply round then
	// materializes the bounds.
	reg := exec.NewEngine(rep, 2)
	reg.MorselTuples = morsel
	reg.RunBatch(batch, 0)
	if _, err := rep.ApplyPending(0); err != nil {
		t.Fatal(err)
	}

	compare := func(label string, want, got []exec.Result, qs []*exec.Query) {
		t.Helper()
		for i, q := range qs {
			if want[i].Err != nil || got[i].Err != nil {
				t.Fatalf("%s %s: errs %v %v", label, q.Name, want[i].Err, got[i].Err)
			}
			if got[i].Rows != want[i].Rows {
				t.Fatalf("%s %s: rows %d (pruned) != %d (unpruned)",
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

		// Full shared batch: a morsel is only skipped when every
		// interested query disproves it, so this mostly exercises the
		// per-query verdicts that gate tuple offers inside scanned
		// morsels.
		wantBatch := ref.RunBatch(qs, covered)
		for _, w := range []int{1, 4, runtime.NumCPU()} {
			pr := exec.NewEngine(rep, w)
			pr.MorselTuples = morsel
			compare(fmt.Sprintf("%s batch workers=%d", stage, w),
				wantBatch, pr.RunBatch(qs, covered), qs)
		}

		// Single-query batches: here a query's own pushed-down
		// predicates decide each morsel alone, so whole-morsel skipping
		// engages. Require it to actually fire somewhere, or the parity
		// claim is vacuous.
		var skipped uint64
		for _, w := range []int{1, 4, runtime.NumCPU()} {
			pr := exec.NewEngine(rep, w)
			pr.MorselTuples = morsel
			var st olap.SchedulerStats
			pr.AttachStats(&st)
			for _, q := range qs {
				one := []*exec.Query{q}
				compare(fmt.Sprintf("%s single workers=%d", stage, w),
					ref.RunBatch(one, covered), pr.RunBatch(one, covered), one)
			}
			skipped += st.ExecBlocksSkipped.Load()
		}
		if skipped == 0 {
			t.Fatalf("%s: no morsels skipped across any single-query run — parity check is vacuous", stage)
		}
	}

	check("activated", batch, 0)

	// Update burst, then parity again on the maintained synopses.
	drv := tpcc.NewDriver(db.Scale, 5)
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

	// The constant-size burst recycles tombstoned slots, so by now every
	// block has admitted some post-initial o_id and tailOrders no longer
	// prunes. Target the very newest order instead: only the few blocks
	// holding its lines can survive the synopsis test.
	var maxOID int64
	for _, p := range rep.Table(tpcc.TOrderLine).Partitions {
		eachLive(p, func(tup []byte) {
			if v := db.Schemas.OrderLine.GetInt64(tup, tpcc.OLOID); v > maxOID {
				maxOID = v
			}
		})
	}
	maintained := append(batch, &exec.Query{
		Name:   "newestOrders",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.CmpInt(tpcc.OLOID, exec.GE, maxOID)},
		Aggs:   []exec.AggSpec{{Kind: exec.Count}},
	})
	check("maintained", maintained, covered)
}
