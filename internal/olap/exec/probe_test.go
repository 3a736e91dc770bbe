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

// A probe filter over a build no larger than the driver is evaluated
// once per build row; over a build larger than the driver it is
// evaluated per hit. Both give the reference answer, and the counters
// say which one ran.
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
				res, lookups, evals := probeCounts(t, f, f.regionQuery(reg))
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

// An empty build: every probe misses, no filter is ever evaluated, and
// the zero-row bitmap is never indexed.
func TestProbeEmptyBuild(t *testing.T) {
	f := buildFixture(t, 2, 200, 20)
	f.replica.CreateTable(storage.NewSchema(3, "nobody", f.custs.Columns, f.custs.Key), 0)
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

// Members of one cohort share the probe chain but keep their own
// filters: with bitmaps each member tests its own bits against the
// shared ordinal.
func TestProbeFilterBitmapPerCohortMember(t *testing.T) {
	f := buildFixture(t, 4, 3000, 150)
	var batch []*Query
	for reg := int64(0); reg < 5; reg++ {
		q := f.regionQuery(reg)
		q.ShareKey = "region"
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
	if st.ExecCohortsShared.Load() != 1 {
		t.Fatalf("the five instances did not merge into one cohort")
	}
	// One chain for five members: 3000 lookups, 5 bitmaps of 150 rows.
	if l, p := st.ExecProbeLookups.Load(), st.ExecProbePredEvals.Load(); l != 3000 || p != 5*150 {
		t.Fatalf("%d lookups, %d filter evaluations; want 3000 and 750", l, p)
	}
}
