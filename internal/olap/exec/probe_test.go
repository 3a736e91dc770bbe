package exec

import (
	"testing"

	"batchdb/internal/olap"
	"batchdb/internal/storage"
)

// probeCounts runs q alone on a fresh engine over f and returns the
// result with the probe work counters of that one batch.
func probeCounts(t *testing.T, f *fixture, q *Query) (Result, uint64, uint64) {
	t.Helper()
	var st olap.SchedulerStats
	e := NewEngine(f.replica, 2)
	e.MorselTuples = 64
	e.AttachStats(&st)
	res := e.RunBatch([]*Query{q}, 0)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	return res[0], st.ExecProbeLookups.Load(), st.ExecProbePredEvals.Load()
}

// A probe filter over a probed table no larger than the driver is
// evaluated once per row of the table; over a table larger than the
// driver it is evaluated per hit, by the walk. Both give the reference answer, and
// the counters say which one ran.
func TestProbeFilterBitmapAndFallback(t *testing.T) {
	cases := []struct {
		name              string
		orders, customers int
		bitmap            bool
	}{
		{"build smaller than driver", 2000, 100, true},
		{"build as large as driver", 300, 300, true},
		{"build larger than driver", 60, 900, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := buildFixture(t, 3, tc.orders, tc.customers)
			for reg := int64(0); reg < 5; reg++ {
				// As a tail step for the even regions, declared (a root step)
				// for the odd: the same work either way.
				q := f.regionQuery(reg)
				if reg%2 == 1 {
					q.Probes[0].KeyID, q.Probes[0].From = "o.cust", -1
				}
				res, lookups, evals := probeCounts(t, f, q)
				if !almostEqual(res.Values[0], f.expSum[reg]) || int64(res.Values[1]) != f.expCount[reg] {
					t.Fatalf("region %d: got sum %f count %f, want %f / %d", reg, res.Values[0], res.Values[1], f.expSum[reg], f.expCount[reg])
				}
				// Every order finds its customer: one lookup and — per hit —
				// one evaluation each; a bitmap costs one per customer.
				want := uint64(tc.orders)
				if tc.bitmap {
					want = uint64(tc.customers)
				}
				if lookups != uint64(tc.orders) || evals != want {
					t.Fatalf("region %d: %d lookups, %d filter evaluations; want %d and %d", reg, lookups, evals, tc.orders, want)
				}
			}
		})
	}
}

// An empty probed table: every probe misses, no filter is ever
// evaluated, and the zero-row bitmap is never indexed.
func TestProbeEmptyBuild(t *testing.T) {
	f := buildFixture(t, 2, 200, 20)
	nobody := storage.NewSchema(3, "nobody", f.custs.Columns, f.custs.Key)
	f.replica.CreateTable(nobody, col0Key(nobody), 0)
	q := f.regionQuery(1)
	q.Probes[0].Table = 3
	res, lookups, evals := probeCounts(t, f, q)
	if res.Rows != 0 || res.Values[0] != 0 || res.Values[1] != 0 {
		t.Fatalf("join against an empty table produced rows: %+v", res)
	}
	if lookups != 200 || evals != 0 {
		t.Fatalf("%d lookups, %d filter evaluations; want 200 and 0", lookups, evals)
	}
}

// Queries that share a declared step keep their own filters: the five
// region queries look each order's customer up once, together, and each
// tests its own bitmap against the shared row.
func TestProbeFilterBitmapPerQuery(t *testing.T) {
	f := buildFixture(t, 4, 3000, 150)
	var batch []*Query
	for reg := int64(0); reg < 5; reg++ {
		q := f.regionQuery(reg)
		q.Probes[0].KeyID, q.Probes[0].From = "o.cust", -1
		batch = append(batch, q)
	}
	var st olap.SchedulerStats
	e := NewEngine(f.replica, 2)
	e.AttachStats(&st)
	for i, res := range e.RunBatch(batch, 0) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !almostEqual(res.Values[0], f.expSum[int64(i)]) || int64(res.Values[1]) != f.expCount[int64(i)] {
			t.Fatalf("region %d: got sum %f count %f, want %f / %d", i, res.Values[0], res.Values[1], f.expSum[int64(i)], f.expCount[int64(i)])
		}
	}
	// One step for five queries: 3000 lookups, 5 bitmaps of 150 rows.
	if l, p := st.ExecProbeLookups.Load(), st.ExecProbePredEvals.Load(); l != 3000 || p != 5*150 {
		t.Fatalf("%d lookups, %d filter evaluations; want 3000 and 750", l, p)
	}
}

// A chain may hold one root step twice, under different filters: the
// tuple is looked up once and must pass both.
func TestRootStepTwiceInChain(t *testing.T) {
	f := buildFixture(t, 3, 2000, 100)
	q := f.regionQuery(0)
	q.Probes[0].KeyID, q.Probes[0].From = "o.cust", -1
	q.Probes[0].Pred = func(tup []byte) bool { return f.custs.GetInt64(tup, 1) >= 1 }
	again := q.Probes[0]
	again.Pred = func(tup []byte) bool { return f.custs.GetInt64(tup, 1) <= 3 }
	q.Probes = append(q.Probes, again)
	res, lookups, evals := probeCounts(t, f, q)
	var sum float64
	var count int64
	for reg := int64(1); reg <= 3; reg++ {
		sum += f.expSum[reg]
		count += f.expCount[reg]
	}
	if !almostEqual(res.Values[0], sum) || int64(res.Values[1]) != count {
		t.Fatalf("got sum %f count %f, want %f / %d", res.Values[0], res.Values[1], sum, count)
	}
	if lookups != 2000 || evals != 2*100 {
		t.Fatalf("%d lookups, %d filter evaluations; want 2000 (one step) and 200 (two bitmaps)", lookups, evals)
	}
}

// A declaration that names no earlier probe fails its query, not the
// batch.
func TestBadDeclarationFailsItsQuery(t *testing.T) {
	f := buildFixture(t, 2, 100, 10)
	bad := f.regionQuery(1)
	bad.Probes[0].KeyID, bad.Probes[0].From = "o.cust", 0
	res := NewEngine(f.replica, 1).RunBatch([]*Query{bad, f.regionQuery(1)}, 0)
	if res[0].Err == nil {
		t.Fatal("a probe declaring its key From itself compiled")
	}
	if res[1].Err != nil || !almostEqual(res[1].Values[0], f.expSum[1]) {
		t.Fatalf("the query beside it: err %v, sum %f, want %f", res[1].Err, res[1].Values[0], f.expSum[1])
	}
}
