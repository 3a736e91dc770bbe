package exec_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"batchdb/internal/chbench"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/replica"
	"batchdb/internal/storage"
	"batchdb/internal/tpcc"
)

// The CH-benCHmark side of the probe tests lives in the external test
// package: chbench imports exec.

// chFixture is one generated TPC-C database with two replicas of it.
// In builds, the four static dimension tables (item, supplier, nation,
// region) are probed through hash builds, as the benchmark composes
// them, so their probe filters are evaluated once per build row. In
// perHit every table carries a PK index, which has no row ordinals to
// hang a bitmap on: the same queries evaluate every filter on every hit.
type chFixture struct {
	db             *tpcc.DB
	builds, perHit *olap.Replica
}

func newCHFixture(tb testing.TB, sc tpcc.Scale) *chFixture {
	tb.Helper()
	db := tpcc.NewDB(sc)
	if err := tpcc.Generate(db, 21); err != nil {
		tb.Fatal(err)
	}
	f := &chFixture{db: db, builds: chbench.EmptyReplica(db, 4), perHit: chbench.EmptyReplica(db, 4)}
	s := db.Schemas
	for id, sch := range map[storage.TableID]*storage.Schema{
		tpcc.TItem: s.Item, tpcc.TSupplier: s.Supplier, tpcc.TNation: s.Nation, tpcc.TRegion: s.Region,
	} {
		sch := sch
		key := sch.Key[0] // single-column integer keys, packed as themselves
		f.perHit.Table(id).SetPK(func(t []byte) uint64 { return uint64(sch.GetInt64(t, key)) }, 0)
	}
	for _, rep := range []*olap.Replica{f.builds, f.perHit} {
		if _, err := replica.LoadLocal(rep, db.Store, chbench.Tables()); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

// runCH executes the batch on rep with one worker (so both replicas add
// their floats in the same order) and returns the results with the
// batch's probe work counters.
func runCH(tb testing.TB, rep *olap.Replica, batch []*exec.Query) ([]exec.Result, uint64, uint64) {
	tb.Helper()
	var st olap.SchedulerStats
	e := exec.NewEngine(rep, 1)
	e.AttachStats(&st)
	res := e.RunBatch(batch, 0)
	for i := range res {
		if res[i].Err != nil {
			tb.Fatalf("%s: %v", batch[i].Name, res[i].Err)
		}
	}
	return res, st.ExecProbeLookups.Load(), st.ExecProbePredEvals.Load()
}

func sameAnswer(a, b *exec.Result) error {
	close := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*(1+math.Abs(x)+math.Abs(y)) }
	if a.Rows != b.Rows || len(a.Groups) != len(b.Groups) {
		return fmt.Errorf("rows %d / %d, groups %d / %d", a.Rows, b.Rows, len(a.Groups), len(b.Groups))
	}
	for i := range a.Values {
		if !close(a.Values[i], b.Values[i]) {
			return fmt.Errorf("aggregate %d: %v / %v", i, a.Values[i], b.Values[i])
		}
	}
	for gi := range a.Groups {
		ga, gb := &a.Groups[gi], &b.Groups[gi]
		if fmt.Sprint(ga.Key) != fmt.Sprint(gb.Key) || ga.Rows != gb.Rows {
			return fmt.Errorf("group %d: key %v rows %d / key %v rows %d", gi, ga.Key, ga.Rows, gb.Key, gb.Rows)
		}
		for i := range ga.Values {
			if !close(ga.Values[i], gb.Values[i]) {
				return fmt.Errorf("group %v aggregate %d: %v / %v", ga.Key, i, ga.Values[i], gb.Values[i])
			}
		}
	}
	return nil
}

// filteredBuildRows is what the bitmap path may spend on q: the rows of
// every build q filters, once each.
func filteredBuildRows(rep *olap.Replica, q *exec.Query) uint64 {
	var n uint64
	for i := range q.Probes {
		if p := &q.Probes[i]; (p.Pred != nil || len(p.Where) > 0) && !rep.Table(p.Table).HasPKIndex() {
			n += uint64(rep.Table(p.Table).Live())
		}
	}
	return n
}

// TestProbeBitmapEqualsPerHit: on all 14 templates × 5 predicate seeds,
// evaluating probe filters once per build row gives the answer that
// evaluating them on every hit gives, and never costs more evaluations
// than the filtered builds have rows.
func TestProbeBitmapEqualsPerHit(t *testing.T) {
	f := newCHFixture(t, tpcc.BenchScale(1))
	var bitmapEvals, perHitEvals uint64
	for seed := int64(1); seed <= 5; seed++ {
		for _, name := range chbench.QueryNames {
			// Two generators on one seed: each replica gets its own query
			// instance with the same predicate constants.
			qb := chbench.NewGen(f.db.Schemas, seed).ByName(name)
			qh := chbench.NewGen(f.db.Schemas, seed).ByName(name)
			rb, lb, eb := runCH(t, f.builds, []*exec.Query{qb})
			rh, lh, eh := runCH(t, f.perHit, []*exec.Query{qh})
			label := fmt.Sprintf("seed %d %s", seed, name)
			if err := sameAnswer(&rb[0], &rh[0]); err != nil {
				t.Fatalf("%s: bitmap / per-hit answers differ: %v", label, err)
			}
			if lb != lh {
				t.Fatalf("%s: %d lookups with builds, %d through PK indexes", label, lb, lh)
			}
			// Q12's only filter is on orders, a PK-indexed table on both
			// replicas: per hit either way.
			want := filteredBuildRows(f.builds, qb)
			if name == "Q12" {
				want = eh
			}
			if eb != want {
				t.Fatalf("%s: %d filter evaluations with builds, want %d (rows of the filtered builds)", label, eb, want)
			}
			bitmapEvals += eb
			perHitEvals += eh
		}
	}
	// At this scale an order line meets one of 5 000 items 30 000 times
	// a query (6x); the benchmark's four warehouses make it 24x.
	if perHitEvals < 4*bitmapEvals {
		t.Fatalf("per-hit evaluation made %d filter calls, bitmaps %d: less than the 4x the data should give", perHitEvals, bitmapEvals)
	}
}

// TestProbeWorkCounters pins the probe work of one batch of the 14
// templates over a fixed database and fixed predicates. The counts are
// functions of data, plan and batch alone — no clock, no scheduling —
// so a change in either is a change in how much work a query does, and
// shows here before it shows in a wall-clock rate.
func TestProbeWorkCounters(t *testing.T) {
	f := newCHFixture(t, tpcc.BenchScale(1))
	g := chbench.NewGen(f.db.Schemas, 1)
	var batch []*exec.Query
	for _, name := range chbench.QueryNames {
		batch = append(batch, g.ByName(name))
	}
	const wantLookups, wantEvals = 546898, 62497
	for _, workers := range []int{1, 2} {
		var st olap.SchedulerStats
		e := exec.NewEngine(f.builds, workers)
		e.AttachStats(&st)
		for i, r := range e.RunBatch(batch, 0) {
			if r.Err != nil {
				t.Fatalf("%s: %v", batch[i].Name, r.Err)
			}
		}
		if l, p := st.ExecProbeLookups.Load(), st.ExecProbePredEvals.Load(); l != wantLookups || p != wantEvals {
			t.Fatalf("workers=%d: %d probe lookups, %d filter evaluations; want %d and %d", workers, l, p, wantLookups, wantEvals)
		}
	}
}

// BenchmarkProbeChain times the per-tuple probe path on the two shapes
// that bound it: Q5's seven-step chain (two PK-index probes, five build
// probes, two filters) and Q16's two filtered build probes. One op is
// one single-query batch over BenchScale(1)'s 30 000 order lines; the
// per-tuple metrics divide by that. allocs/tuple is the pin: a batch
// allocates its plan, partials and group maps once, a tuple nothing.
func BenchmarkProbeChain(b *testing.B) {
	f := newCHFixture(b, tpcc.BenchScale(1))
	tuples := f.builds.Table(tpcc.TOrderLine).Live()
	for _, name := range []string{"Q5", "Q16"} {
		b.Run(name, func(b *testing.B) {
			q := chbench.NewGen(f.db.Schemas, 1).ByName(name)
			e := exec.NewEngine(f.builds, 1)
			e.RunBatch([]*exec.Query{q}, 0) // construct and cache the builds
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := e.RunBatch([]*exec.Query{q}, 0); res[0].Err != nil {
					b.Fatal(res[0].Err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perTuple := float64(b.N * tuples)
			allocs := float64(after.Mallocs-before.Mallocs) / perTuple
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perTuple, "ns/tuple")
			b.ReportMetric(allocs, "allocs/tuple")
			if allocs > 0.05 {
				b.Fatalf("%.3f allocations per tuple: the probe path allocates again", allocs)
			}
		})
	}
}
