package olap_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"batchdb/internal/chbench"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/oltp"
	"batchdb/internal/proplog"
	"batchdb/internal/replica"
	"batchdb/internal/tpcc"
)

// pushLog is an UpdateSink that keeps what the primary pushed.
type pushLog struct {
	batches [][]proplog.Batch
	upTo    []uint64
}

func (l *pushLog) ApplyUpdates(batches []proplog.Batch, upTo uint64) {
	l.batches = append(l.batches, batches)
	l.upTo = append(l.upTo, upTo)
}

// tpccDelta is a loaded TPC-C database, the pushes its primary made for
// a run of transactions — one forced push every txnsPerPush of them — and
// the rows of the replica as they were before the first.
type tpccDelta struct {
	db      *tpcc.DB
	base    *olap.Replica
	pushes  pushLog
	queries []*exec.Query // the 14 CH templates
}

func newTPCCDelta(tb testing.TB, scale tpcc.Scale, pushes, txnsPerPush int) *tpccDelta {
	d := &tpccDelta{db: tpcc.NewDB(scale)}
	if err := tpcc.Generate(d.db, 29); err != nil {
		tb.Fatal(err)
	}
	e, err := oltp.New(d.db.Store, oltp.Config{Workers: 2, Replicated: tpcc.ReplicatedTables(), FieldSpecific: true})
	if err != nil {
		tb.Fatal(err)
	}
	tpcc.RegisterProcs(e, d.db, true)
	d.base = chbench.EmptyReplica(d.db, 8)
	if _, err := replica.LoadLocal(d.base, d.db.Store, chbench.Tables()); err != nil {
		tb.Fatal(err)
	}
	e.SetSink(&d.pushes)
	e.Start()
	driver := tpcc.NewDriver(d.db.Scale, 29)
	for p := 0; p < pushes; p++ {
		for i := 0; i < txnsPerPush; i++ {
			proc, args := driver.Next()
			e.Exec(proc, args)
		}
		e.SyncUpdates()
	}
	e.Close()
	if len(d.pushes.upTo) < pushes {
		tb.Fatalf("%d pushes captured, want at least %d", len(d.pushes.upTo), pushes)
	}
	gen := chbench.NewGen(d.db.Schemas, 1)
	for _, name := range chbench.QueryNames {
		d.queries = append(d.queries, gen.ByName(name))
	}
	return d
}

// fresh copies the pre-delta rows into a replica wired like the
// benchmark's — 8 partitions, zone maps on — with the
// synopsis columns the 14 templates filter on active.
func (d *tpccDelta) fresh(tb testing.TB) *olap.Replica {
	rep := chbench.EmptyReplica(d.db, 8)
	rep.EnableZoneMaps(exec.DefaultMorselTuples)
	rep.SetApplyWorkers(2)
	slots := make([]int32, 64)
	for _, t := range d.base.Tables() {
		key := d.db.TableByID(t.Schema.ID).KeyFn
		for _, p := range t.Partitions {
			for next := 0; next < p.Slots(); {
				var n int
				n, next = p.LiveSlots(p.Slots(), next, slots)
				for _, slot := range slots[:n] {
					tup := append([]byte(nil), p.Tuple(slot)...)
					if err := rep.LoadTuple(t.Schema.ID, key(tup), tup); err != nil {
						tb.Fatal(err)
					}
				}
			}
		}
	}
	exec.NewEngine(rep, 1).RunBatch(d.queries, 0)
	if _, err := rep.ApplyPending(0); err != nil {
		tb.Fatal(err)
	}
	return rep
}

// applySplit feeds the pushes to rep in `rounds` equal groups, one apply
// round each — as the scheduler's rounds between two batches do — and
// returns the entries applied.
func (d *tpccDelta) applySplit(tb testing.TB, rep *olap.Replica, rounds int) (entries int) {
	n := len(d.pushes.upTo)
	for r := 0; r < rounds; r++ {
		lo, hi := r*n/rounds, (r+1)*n/rounds
		for p := lo; p < hi; p++ {
			rep.ApplyUpdates(d.pushes.batches[p], d.pushes.upTo[p])
		}
		st, err := rep.ApplyPending(d.pushes.upTo[hi-1])
		if err != nil {
			tb.Fatal(err)
		}
		entries += st.Entries
	}
	return entries
}

// TestApplySplitAnswersMatch is the 14-template half of the split oracle
// (TestApplySplitEqualsOneRound has the storage half): a TPC-C delta
// applied as one round and as 2 to 6 rounds gives every CH template the
// same answer.
func TestApplySplitAnswersMatch(t *testing.T) {
	d := newTPCCDelta(t, tpcc.BenchScale(1), 6, 100)
	answers := func(rounds int) []exec.Result {
		rep := d.fresh(t)
		if n := d.applySplit(t, rep, rounds); n == 0 {
			t.Fatal("the delta is empty")
		}
		return exec.NewEngine(rep, 1).RunBatch(d.queries, 0) // one worker: one summation order
	}
	want := answers(1)
	for _, rounds := range []int{2, 3, 6} {
		for qi, got := range answers(rounds) {
			if got.Err != nil || want[qi].Err != nil {
				t.Fatalf("%s: errors %v / %v", chbench.QueryNames[qi], got.Err, want[qi].Err)
			}
			if got.Rows != want[qi].Rows || !reflect.DeepEqual(got.Values, want[qi].Values) {
				t.Errorf("%s after %d rounds: %d rows %v; after one round %d rows %v",
					chbench.QueryNames[qi], rounds, got.Rows, got.Values, want[qi].Rows, want[qi].Values)
			}
		}
	}
}

// BenchmarkApplyRoundSplit applies one delta of the benchmark's hybrid
// window — 4 000 TPC-C transactions on BenchScale(4), about 130 000
// entries, a third of a second of it — to the benchmark's replica as 1, 4
// and 16 rounds. A round must cost what its delta costs: ns/entry at 16
// rounds within 1.15× of one round's, allocs/entry flat.
func BenchmarkApplyRoundSplit(b *testing.B) {
	d := newTPCCDelta(b, tpcc.BenchScale(4), 16, 250)
	for _, rounds := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			var entries, mallocs uint64
			var m0, m1 runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rep := d.fresh(b)
				runtime.GC()
				runtime.ReadMemStats(&m0)
				b.StartTimer()
				entries += uint64(d.applySplit(b, rep, rounds))
				b.StopTimer()
				runtime.ReadMemStats(&m1)
				mallocs += m1.Mallocs - m0.Mallocs
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
			b.ReportMetric(float64(mallocs)/float64(entries), "allocs/entry")
		})
	}
}
