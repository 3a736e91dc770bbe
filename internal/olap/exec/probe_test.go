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
				q := f.regionQuery(reg)
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
	f.replica.CreateTable(nobody, 0)
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
		batch = append(batch, f.regionQuery(reg))
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
	q.Probes[0].Where = []Pred{CmpInt(1, GE, 1)}
	again := q.Probes[0]
	again.Where = []Pred{CmpInt(1, LE, 3)}
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

// A declaration its schema does not fit fails its query at compile
// time, without a panic, and the query beside it in the batch runs.
func TestBadDeclarationFailsItsQuery(t *testing.T) {
	f := buildFixture(t, 2, 100, 10)
	cases := map[string]func(q *Query){
		"key field on a float column": func(q *Query) { q.Probes[0].Key = []KeyField{KeyCol(2, 0)} },
		"key field on a string column": func(q *Query) {
			q.Probes = append(q.Probes, Probe{Table: tblCustomers, From: 0, Key: []KeyField{KeyCol(2, 0)}})
		},
		"MulMod by a float column":      func(q *Query) { q.Probes[0].Key = []KeyField{MulMod(1, 2, 7)} },
		"shift past bit 63":             func(q *Query) { q.Probes[0].Key = []KeyField{KeyCol(1, 64)} },
		"no key":                        func(q *Query) { q.Probes[0].Key = nil },
		"too many key fields":           func(q *Query) { q.Probes[0].Key = make([]KeyField, MaxKeyFields+1) },
		"string op on a numeric column": func(q *Query) { q.Probes[0].Where = []Pred{HasPrefix(1, "x")} },
		"string op on the driver":       func(q *Query) { q.Where = []Pred{Not(Contains(0, "x"))} },
		"numeric op on a string column": func(q *Query) { q.Probes[0].Where = []Pred{CmpInt(2, EQ, 1)} },
		"float op on an integer column": func(q *Query) { q.Where = []Pred{BetweenFloat(1, 0, 1)} },
		"unknown operator":              func(q *Query) { q.Where = []Pred{CmpInt(1, Op(42), 1)} },
		"zero predicate":                func(q *Query) { q.Where = []Pred{{}} },
		"predicate column out of range": func(q *Query) { q.Where = []Pred{CmpInt(9, EQ, 1)} },
		"From itself":                   func(q *Query) { q.Probes[0].From = 0 },
		"From a later probe":            func(q *Query) { q.Probes = append(q.Probes, q.Probes[0]); q.Probes[0].From = 1 },
		"From below the driver":         func(q *Query) { q.Probes[0].From = -2 },
		"Sum of a string column":        func(q *Query) { q.Driver, q.Probes, q.Aggs = tblCustomers, nil, []AggSpec{SumCol(2)} },
		"group by a string column":      func(q *Query) { q.GroupBy = []GroupCol{{From: 0, Col: 2}} },
		"group by a probe that is not":  func(q *Query) { q.GroupBy = []GroupCol{{From: 1, Col: 0}} },
	}
	for name, spoil := range cases {
		bad := f.regionQuery(1)
		spoil(bad)
		res := NewEngine(f.replica, 1).RunBatch([]*Query{bad, f.regionQuery(1)}, 0)
		if res[0].Err == nil {
			t.Errorf("%s: compiled", name)
		}
		if res[1].Err != nil || !almostEqual(res[1].Values[0], f.expSum[1]) {
			t.Errorf("%s: the query beside it: err %v, sum %f, want %f", name, res[1].Err, res[1].Values[0], f.expSum[1])
		}
	}
}
