package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"batchdb/internal/olap"
)

// --- reference evaluation over the fixture replica ----------------------

// refQuery mirrors what the randomized parity batches can express: the
// region join of regionQuery (optional), a driver id range, and a
// group-by prefix of (customer region, driver cust).
type refQuery struct {
	reg    int64 // -1 = no region probe
	idLo   int64
	idHi   int64
	groupN int // 0, 1 (region) or 2 (region, cust)
}

type refGroup struct {
	sum   float64
	count int64
}

type refResult struct {
	rows   int64
	sum    float64
	count  int64
	groups map[[2]int64]*refGroup
}

// evalRef computes the query straight off the replica's raw rows.
func evalRef(f *fixture, rq refQuery) *refResult {
	regionOf := map[int64]int64{}
	for _, p := range f.replica.Table(tblCustomers).Partitions {
		p.Scan(func(_ uint64, tup []byte) bool {
			regionOf[f.custs.GetInt64(tup, 0)] = f.custs.GetInt64(tup, 1)
			return true
		})
	}
	res := &refResult{groups: map[[2]int64]*refGroup{}}
	for _, p := range f.replica.Table(tblOrders).Partitions {
		p.Scan(func(_ uint64, tup []byte) bool {
			id := f.orders.GetInt64(tup, 0)
			if id < rq.idLo || id > rq.idHi {
				return true
			}
			cust := f.orders.GetInt64(tup, 1)
			reg, ok := regionOf[cust]
			if !ok || (rq.reg >= 0 && reg != rq.reg) {
				return true
			}
			amt := f.orders.GetFloat64(tup, 2)
			res.rows++
			res.sum += amt
			res.count++
			if rq.groupN > 0 {
				// Key exactly as buildRefQuery groups: (region) or
				// (region, cust) with the probe; (cust) without it.
				var key [2]int64
				key[0] = reg
				if rq.reg < 0 && rq.groupN == 1 {
					key[0] = cust
				}
				if rq.groupN > 1 {
					key[1] = cust
				}
				g := res.groups[key]
				if g == nil {
					g = &refGroup{}
					res.groups[key] = g
				}
				g.sum += amt
				g.count++
			}
			return true
		})
	}
	return res
}

// buildRefQuery lowers a refQuery to the executable form.
func buildRefQuery(f *fixture, rq refQuery) *Query {
	var q *Query
	if rq.reg >= 0 {
		q = f.regionQuery(rq.reg)
	} else {
		q = &Query{
			Name:   "scanRef",
			Driver: tblOrders,
			Aggs: []AggSpec{
				{Kind: Sum, Value: func(d []byte, _ [][]byte) float64 { return f.orders.GetFloat64(d, 2) }},
				{Kind: Count},
			},
		}
	}
	q.Where = []Pred{BetweenInt(0, rq.idLo, rq.idHi)}
	switch rq.groupN {
	case 1:
		if rq.reg >= 0 {
			q.GroupBy = []GroupCol{{From: 0, Col: 1}}
		} else {
			q.GroupBy = []GroupCol{{From: -1, Col: 1}} // cust off the driver
		}
	case 2:
		q.GroupBy = []GroupCol{{From: 0, Col: 1}, {From: -1, Col: 1}}
	}
	return q
}

func checkAgainstRef(t *testing.T, label string, f *fixture, rq refQuery, got *Result) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("%s: %v", label, got.Err)
	}
	want := evalRef(f, rq)
	if got.Rows != want.rows {
		t.Fatalf("%s: rows %d, want %d", label, got.Rows, want.rows)
	}
	if !almostEqual(got.Values[0], want.sum) || int64(got.Values[1]) != want.count {
		t.Fatalf("%s: values %v, want sum %f count %d", label, got.Values, want.sum, want.count)
	}
	if rq.groupN > 0 {
		wantGroups := want.groups
		if len(got.Groups) != len(wantGroups) {
			t.Fatalf("%s: %d groups, want %d", label, len(got.Groups), len(wantGroups))
		}
		for _, gr := range got.Groups {
			var key [2]int64
			copy(key[:], gr.Key)
			w := wantGroups[key]
			if w == nil {
				t.Fatalf("%s: unexpected group key %v", label, gr.Key)
			}
			if gr.Rows != w.count || !almostEqual(gr.Values[0], w.sum) || int64(gr.Values[1]) != w.count {
				t.Fatalf("%s group %v: rows %d vals %v, want count %d sum %f",
					label, gr.Key, gr.Rows, gr.Values, w.count, w.sum)
			}
		}
	}
}

func compareResults(t *testing.T, label string, shared, private []Result) {
	t.Helper()
	for i := range shared {
		s, p := &shared[i], &private[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("%s query %d: errs %v %v", label, i, s.Err, p.Err)
		}
		if s.Rows != p.Rows {
			t.Fatalf("%s query %d: rows %d (shared) != %d (private)", label, i, s.Rows, p.Rows)
		}
		for j := range s.Values {
			if !almostEqual(s.Values[j], p.Values[j]) {
				t.Fatalf("%s query %d agg %d: %f != %f", label, i, j, s.Values[j], p.Values[j])
			}
		}
		if len(s.Groups) != len(p.Groups) {
			t.Fatalf("%s query %d: %d groups (shared) != %d (private)", label, i, len(s.Groups), len(p.Groups))
		}
		for gi := range s.Groups {
			sg, pg := &s.Groups[gi], &p.Groups[gi]
			if fmt.Sprint(sg.Key) != fmt.Sprint(pg.Key) || sg.Rows != pg.Rows {
				t.Fatalf("%s query %d group %d: (%v,%d) != (%v,%d)",
					label, i, gi, sg.Key, sg.Rows, pg.Key, pg.Rows)
			}
			for j := range sg.Values {
				if !almostEqual(sg.Values[j], pg.Values[j]) {
					t.Fatalf("%s query %d group %d agg %d: %f != %f",
						label, i, gi, j, sg.Values[j], pg.Values[j])
				}
			}
		}
	}
}

// TestPlannerShareParity is the randomized sharing property test:
// seeded batches of 1 to 14 queries mixing three templates — a plain
// scan, the region join with a probe that declares nothing (a tail step
// of its query) and the same join declared (one root step for the whole
// pass) — with group-by arities 0/1/2 must produce, at 1, 2, 4 and
// NumCPU workers, the rows/groups each query produces when it runs
// alone (a batch of one, which has nobody to share with). Each query is
// also checked against a from-scratch reference evaluation over the raw
// rows (the part internal/baseline plays for the CH templates in
// chbench's parity test), so the sides of the parity can't be wrong
// together. Where two declared queries want a driver tuple in common,
// the batch must make fewer probe lookups than its queries alone — the
// shared step is what the parity is about, so it must have run.
func TestPlannerShareParity(t *testing.T) {
	f := buildFixture(t, 4, 3000, 150)
	rng := rand.New(rand.NewSource(99))
	templates := []string{"scan", "probe", "declared"}
	sharedTrials := 0
	for trial := 0; trial < 9; trial++ {
		n := 1 + rng.Intn(14)
		rqs := make([]refQuery, n)
		tmpl := make([]string, n)
		for i := range rqs {
			tmpl[i] = templates[rng.Intn(len(templates))]
			lo := 1 + rng.Int63n(2000)
			rqs[i] = refQuery{reg: rng.Int63n(5), idLo: lo, idHi: lo + 200 + rng.Int63n(1500), groupN: rng.Intn(3)}
			if tmpl[i] == "scan" {
				rqs[i].reg, rqs[i].groupN = -1, rng.Intn(2)
			}
		}
		mkQuery := func(i int) *Query {
			q := buildRefQuery(f, rqs[i])
			if tmpl[i] == "declared" {
				q.Probes[0].KeyID, q.Probes[0].From = "o.cust", -1
			}
			return q
		}
		mkBatch := func() []*Query {
			batch := make([]*Query, n)
			for i := range batch {
				batch[i] = mkQuery(i)
			}
			return batch
		}
		alone := make([]Result, n)
		var aloneLookups uint64
		for i := range alone {
			e := NewEngine(f.replica, 1)
			var st olap.SchedulerStats
			e.AttachStats(&st)
			alone[i] = e.RunBatch([]*Query{mkQuery(i)}, 0)[0]
			aloneLookups += st.ExecProbeLookups.Load()
		}
		// Declared queries with overlapping id ranges want common driver
		// tuples, which their shared root step looks up once.
		common := false
		for i := range rqs {
			for j := i + 1; j < n; j++ {
				common = common || (tmpl[i] == "declared" && tmpl[j] == "declared" &&
					rqs[i].idLo <= rqs[j].idHi && rqs[j].idLo <= rqs[i].idHi)
			}
		}
		if common {
			sharedTrials++
		}
		for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
			e := NewEngine(f.replica, workers)
			e.MorselTuples = 256
			var st olap.SchedulerStats
			e.AttachStats(&st)
			shared := e.RunBatch(mkBatch(), 0)

			label := fmt.Sprintf("trial=%d n=%d workers=%d", trial, n, workers)
			compareResults(t, label+" batch/alone", shared, alone)
			for i := range shared {
				checkAgainstRef(t, fmt.Sprintf("%s query=%d", label, i), f, rqs[i], &shared[i])
			}
			if l := st.ExecProbeLookups.Load(); common && l >= aloneLookups {
				t.Fatalf("%s: %d probe lookups in the batch, %d alone — the declared step was not shared", label, l, aloneLookups)
			}
		}
	}
	if sharedTrials == 0 {
		t.Fatal("no batch held two declared queries over common driver tuples — sharing parity is vacuous")
	}
}

// TestOneScanPassPerDriver pins one morsel pass per driver table per
// batch: four queries whose driver id hulls form two disjoint clusters
// on a zone-mapped table make one zone-map verdict per morsel, not one
// per cluster, and answer what the reference and a twin of the fixture
// built without zone maps (no synopses to consult) answer.
func TestOneScanPassPerDriver(t *testing.T) {
	f := buildFixture(t, 1, 4096, 64)
	f.replica.EnableZoneMaps(256)

	rqs := []refQuery{
		{reg: -1, idLo: 1, idHi: 500},
		{reg: -1, idLo: 40, idHi: 512},
		{reg: -1, idLo: 3500, idHi: 4000},
		{reg: -1, idLo: 3600, idHi: 4090},
	}
	mkBatch := func() []*Query {
		batch := make([]*Query, len(rqs))
		for i := range rqs {
			batch[i] = buildRefQuery(f, rqs[i])
		}
		return batch
	}

	// Registration pass records synopsis interest; activation builds the
	// per-block bounds the verdicts read.
	reg := NewEngine(f.replica, 2)
	reg.MorselTuples = 256
	reg.RunBatch(mkBatch(), 0)
	f.replica.ActivateSynopses()

	const morsels = 4096 / 256
	e := NewEngine(f.replica, 2)
	e.MorselTuples = 256
	var st olap.SchedulerStats
	e.AttachStats(&st)
	got := e.RunBatch(mkBatch(), 0)
	for i := range got {
		checkAgainstRef(t, fmt.Sprintf("zoned query=%d", i), f, rqs[i], &got[i])
	}
	if v := st.ExecBlocksScanned.Load() + st.ExecBlocksSkipped.Load(); v != morsels {
		t.Fatalf("verdicts = %d, want %d (one pass over %d morsels)", v, morsels, morsels)
	}
	if st.ExecBlocksSkipped.Load() == 0 {
		t.Fatal("no morsel skipped — the zone maps never engaged")
	}

	twin := buildFixture(t, 1, 4096, 64)
	e2 := NewEngine(twin.replica, 2)
	e2.MorselTuples = 256
	var st2 olap.SchedulerStats
	e2.AttachStats(&st2)
	compareResults(t, "zoned-vs-unzoned", got, e2.RunBatch(mkBatch(), 0))
	if v := st2.ExecBlocksScanned.Load() + st2.ExecBlocksSkipped.Load(); v != morsels {
		t.Fatalf("unzoned verdicts = %d, want %d (one pass)", v, morsels)
	}
}

// TestPrunedTupleAccounting pins the exact pruning counter: a morsel
// whose live tuples all miss the query's range is skipped, and
// ExecTuplesPruned counts exactly the live tuples of the skipped
// morsels. The tuples of a scanned morsel that the kernel rejects are
// not pruned.
func TestPrunedTupleAccounting(t *testing.T) {
	f := buildFixture(t, 1, 2048, 20)
	f.replica.EnableZoneMaps(256)

	const lo, hi = 300, 700
	mkQuery := func() *Query {
		return &Query{
			Name:   "pruneAcct",
			Driver: tblOrders,
			Where:  []Pred{BetweenInt(0, lo, hi)},
			Aggs: []AggSpec{
				{Kind: Count},
				{Kind: Sum, Value: func(d []byte, _ [][]byte) float64 { return f.orders.GetFloat64(d, 2) }},
			},
		}
	}
	reg := NewEngine(f.replica, 1)
	reg.MorselTuples = 256
	reg.RunBatch([]*Query{mkQuery()}, 0)
	f.replica.ActivateSynopses()

	// The synopses are exact after activation, so a morsel is skipped
	// exactly when none of its live tuples falls in [lo, hi].
	var skipped, pruned uint64
	for _, p := range f.replica.Table(tblOrders).Partitions {
		for mlo := 0; mlo < p.Slots(); mlo += 256 {
			live, hit := 0, false
			p.ScanRange(mlo, mlo+256, func(_ uint64, tup []byte) bool {
				live++
				v := f.orders.GetInt64(tup, 0)
				hit = hit || (v >= lo && v <= hi)
				return true
			})
			if !hit {
				skipped++
				pruned += uint64(live)
			}
		}
	}

	e := NewEngine(f.replica, 2)
	e.MorselTuples = 256
	var st olap.SchedulerStats
	e.AttachStats(&st)
	res := e.RunBatch([]*Query{mkQuery()}, 0)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if res[0].Rows != hi-lo+1 {
		t.Fatalf("rows = %d, want %d", res[0].Rows, hi-lo+1)
	}
	if skipped == 0 || st.ExecBlocksScanned.Load() == 0 {
		t.Fatalf("need both skipped (%d) and scanned (%d) morsels for the accounting to be exercised",
			skipped, st.ExecBlocksScanned.Load())
	}
	if got := st.ExecBlocksSkipped.Load(); got != skipped {
		t.Fatalf("ExecBlocksSkipped = %d, want %d", got, skipped)
	}
	if got := st.ExecTuplesPruned.Load(); got != pruned {
		t.Fatalf("ExecTuplesPruned = %d, want exactly the %d live tuples of the skipped morsels", got, pruned)
	}
}
