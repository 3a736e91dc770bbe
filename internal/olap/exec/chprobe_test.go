package exec_test

import (
	"fmt"
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

// chFixture is one generated TPC-C database and a replica of it, every
// table keyed like its primary (chbench.EmptyReplica).
type chFixture struct {
	db  *tpcc.DB
	rep *olap.Replica
}

func newCHFixture(tb testing.TB, sc tpcc.Scale) *chFixture {
	tb.Helper()
	db := tpcc.NewDB(sc)
	if err := tpcc.Generate(db, 21); err != nil {
		tb.Fatal(err)
	}
	f := &chFixture{db: db, rep: chbench.EmptyReplica(db, 4)}
	if _, err := replica.LoadLocal(f.rep, db.Store, chbench.Tables()); err != nil {
		tb.Fatal(err)
	}
	return f
}

// TestProbeWorkCounters pins the probe work of one batch of the 14
// templates over a fixed database and fixed predicates. The counts are
// functions of data, plan and batch alone — no clock, no scheduling —
// so a change in either is a change in how much work a query does, and
// shows here before it shows in a wall-clock rate. The engine is fresh,
// so the lookups include making every link array once (3 000 orders and
// 3 000 customers, 10 000 suppliers, 62 nations: 16 062); the rest are
// the root steps — 3.0 per order line and 2.0 per stock row for the
// whole batch, where walking each query's chain made 17.9 and 3.0 —
// and the evaluations are one per row per filter: eight on item's 5 000
// rows, one on supplier's 10 000, Q12's on the 3 000 orders (12 105 when
// it ran per hit), ten on nation's and region's 67.
func TestProbeWorkCounters(t *testing.T) {
	f := newCHFixture(t, tpcc.BenchScale(1))
	g := chbench.NewGen(f.db.Schemas, 1)
	var batch []*exec.Query
	for _, name := range chbench.QueryNames {
		batch = append(batch, g.ByName(name))
	}
	const wantLookups, wantEvals = 115285, 53392
	for _, workers := range []int{1, 2} {
		var st olap.SchedulerStats
		e := exec.NewEngine(f.rep, workers)
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

// TestBatchLookupsSublinear: the twelve order-line templates compute
// three distinct keys from an order line between them — its order, its
// item, its supplier — so one batch of all twelve makes at most three
// lookups per order line (3.2 with slack), plus one per parent row for
// each link array the
// engine has to make; a second batch finds the links cached. Run one at a
// time the same queries make more than twice as many. A counter test: no
// clock.
func TestBatchLookupsSublinear(t *testing.T) {
	f := newCHFixture(t, tpcc.BenchScale(1))
	g := chbench.NewGen(f.db.Schemas, 3)
	var batch []*exec.Query
	for _, name := range chbench.QueryNames {
		if q := g.ByName(name); q.Driver == tpcc.TOrderLine {
			batch = append(batch, q)
		}
	}
	if len(batch) != 12 {
		t.Fatalf("%d order-line templates, want 12", len(batch))
	}
	var st olap.SchedulerStats
	e := exec.NewEngine(f.rep, 2)
	e.AttachStats(&st)
	run := func(qs []*exec.Query) uint64 {
		before := st.ExecProbeLookups.Load()
		for i, r := range e.RunBatch(qs, 0) {
			if r.Err != nil {
				t.Fatalf("%s: %v", qs[i].Name, r.Err)
			}
		}
		return st.ExecProbeLookups.Load() - before
	}
	live := func(id storage.TableID) uint64 { return uint64(f.rep.Table(id).Live()) }
	lines := live(tpcc.TOrderLine)
	// orders → customer → nation → region and supplier → nation → region.
	links := live(tpcc.TOrder) + live(tpcc.TCustomer) + live(tpcc.TSupplier) + live(tpcc.TNation)
	first, second := run(batch), run(batch)
	if bound := lines*32/10 + links; first > bound {
		t.Fatalf("first batch: %d lookups over %d order lines and %d link rows, want at most %d", first, lines, links, bound)
	}
	if bound := lines * 32 / 10; second > bound || second+links != first {
		t.Fatalf("second batch: %d lookups (first %d, %d of them links), want at most %d and the first's less the links", second, first, links, bound)
	}
	var alone uint64
	for _, q := range batch {
		alone += run([]*exec.Query{q})
	}
	if alone < 2*second {
		t.Fatalf("one at a time the queries make %d lookups, together %d: the batch shares less than half", alone, second)
	}
}

// BenchmarkProbeChain times the per-tuple probe path on the two shapes
// that bound it: Q5's seven-step chain of PK-index probes (two filters)
// and Q16's two filtered probes into item and supplier. One op is
// one single-query batch over BenchScale(1)'s 30 000 order lines; the
// per-tuple metrics divide by that. allocs/tuple is the pin: a batch
// allocates its plan, partials and group maps once, a tuple nothing.
func BenchmarkProbeChain(b *testing.B) {
	f := newCHFixture(b, tpcc.BenchScale(1))
	tuples := f.rep.Table(tpcc.TOrderLine).Live()
	for _, name := range []string{"Q5", "Q16"} {
		b.Run(name, func(b *testing.B) {
			q := chbench.NewGen(f.db.Schemas, 1).ByName(name)
			e := exec.NewEngine(f.rep, 1)
			e.RunBatch([]*exec.Query{q}, 0) // construct and cache the link arrays
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

// roundRobinBatch is a batch of n queries as benchmark/load.go deals
// them: two sessions take the 14 templates round robin, the second half
// a cycle ahead of the first, and a batch gathers the next tiles of
// both. start rotates the cycle.
func roundRobinBatch(g *chbench.Gen, start, n int) []*exec.Query {
	names := chbench.QueryNames
	batch := make([]*exec.Query, n)
	for j := range batch {
		session := j % 2
		batch[j] = g.ByName(names[(start+j/2+session*len(names)/2)%len(names)])
	}
	return batch
}

// BenchmarkBatchSize times batches of one to seven queries over the
// benchmark's database and replica (BenchScale(4) in 8 partitions, zone
// maps on, every table probed through its PK index),
// averaged over the 14 rotations of the template cycle so that every
// size meets every template. A batch is worth forming when n queries
// cost well under n times one: ms/batch should grow far slower than n,
// and lookups/batch (root-step lookups plus link construction, a
// work counter) says why.
func BenchmarkBatchSize(b *testing.B) {
	db := tpcc.NewDB(tpcc.BenchScale(4))
	if err := tpcc.Generate(db, 21); err != nil {
		b.Fatal(err)
	}
	rep := chbench.EmptyReplica(db, 8)
	rep.EnableZoneMaps(exec.DefaultMorselTuples)
	if _, err := replica.LoadLocal(rep, db.Store, chbench.Tables()); err != nil {
		b.Fatal(err)
	}
	for n := 1; n <= 7; n++ {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var st olap.SchedulerStats
			e := exec.NewEngine(rep, 1)
			e.AttachStats(&st)
			g := chbench.NewGen(db.Schemas, 1)
			rotations := len(chbench.QueryNames)
			batches := make([][]*exec.Query, rotations)
			for s := range batches {
				batches[s] = roundRobinBatch(g, s, n)
				e.RunBatch(batches[s], 0) // construct and cache the link arrays
			}
			// An apply round activates the columns the batches filter on.
			if _, err := rep.ApplyPending(0); err != nil {
				b.Fatal(err)
			}
			before := st.ExecProbeLookups.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, batch := range batches {
					for _, r := range e.RunBatch(batch, 0) {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
			}
			b.StopTimer()
			per := float64(b.N * rotations)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/per, "ms/batch")
			b.ReportMetric(float64(st.ExecProbeLookups.Load()-before)/per, "lookups/batch")
		})
	}
}
