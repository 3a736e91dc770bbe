package chbench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"batchdb/internal/baseline"
	"batchdb/internal/olap/exec"
	"batchdb/internal/tpcc"
)

// Property test for the morsel-driven shared executor: seeded batches of
// 1 to 14 CH queries of mixed templates — so that their probes meet in
// the pass's step forest in ever different combinations — must produce,
// at every worker count, what each query produces run alone on the
// replica and what internal/baseline computes for it over the primary's
// MVCC store, which shares no code with the executor beyond the query's
// closures. Rows and groups must match exactly; float aggregates may
// differ by accumulation order only.
func TestSharedParityRandomizedBatches(t *testing.T) {
	db := tpcc.NewDB(tpcc.SmallScale(2))
	if err := tpcc.Generate(db, 21); err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := baseline.New(db, 1, baseline.FairShared)
	defer base.Close()

	workerSet := []int{1, 2, 4, runtime.NumCPU()}
	for seed := int64(0); seed < 8; seed++ {
		g := NewGen(db.Schemas, seed)
		sizes := rand.New(rand.NewSource(seed))
		batch := make([]*exec.Query, 1+sizes.Intn(14))
		for i := range batch {
			batch[i] = g.Next()
		}

		// References: each query alone on a fresh engine, and the baseline.
		want := make([]exec.Result, len(batch))
		for i, q := range batch {
			want[i] = exec.NewEngine(rep, 1).RunBatch([]*exec.Query{q}, 0)[0]
			ref := base.Query(q)
			if want[i].Err != nil || ref.Err != nil {
				t.Fatalf("seed=%d %s: errs %v (alone) %v (baseline)", seed, q.Name, want[i].Err, ref.Err)
			}
			if err := sameTotals(&want[i], &ref); err != nil {
				t.Fatalf("seed=%d %s alone / baseline: %v", seed, q.Name, err)
			}
		}

		for _, w := range workerSet {
			e := exec.NewEngine(rep, w)
			e.MorselTuples = 512 // small morsels: force multi-morsel dispatch
			got := e.RunBatch(batch, 0)
			label := fmt.Sprintf("seed=%d n=%d workers=%d", seed, len(batch), w)
			for i := range batch {
				if got[i].Err != nil {
					t.Fatalf("%s %s: %v", label, batch[i].Name, got[i].Err)
				}
				if err := sameTotals(&got[i], &want[i]); err != nil {
					t.Fatalf("%s %s batch / alone: %v", label, batch[i].Name, err)
				}
				if err := sameGroups(&got[i], &want[i]); err != nil {
					t.Fatalf("%s %s batch / alone: %v", label, batch[i].Name, err)
				}
			}
		}
	}
}

func parityClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

// sameTotals compares row counts and total aggregates (all the baseline
// computes).
func sameTotals(a, b *exec.Result) error {
	if a.Rows != b.Rows {
		return fmt.Errorf("rows %d != %d", a.Rows, b.Rows)
	}
	for j := range a.Values {
		if !parityClose(a.Values[j], b.Values[j]) {
			return fmt.Errorf("agg %d: %f != %f", j, a.Values[j], b.Values[j])
		}
	}
	return nil
}

// sameGroups compares the per-group rows of two results.
func sameGroups(a, b *exec.Result) error {
	if len(a.Groups) != len(b.Groups) {
		return fmt.Errorf("%d groups != %d", len(a.Groups), len(b.Groups))
	}
	for gi := range a.Groups {
		ga, gb := &a.Groups[gi], &b.Groups[gi]
		if fmt.Sprint(ga.Key) != fmt.Sprint(gb.Key) || ga.Rows != gb.Rows {
			return fmt.Errorf("group %d: key %v rows %d != key %v rows %d", gi, ga.Key, ga.Rows, gb.Key, gb.Rows)
		}
		for j := range ga.Values {
			if !parityClose(ga.Values[j], gb.Values[j]) {
				return fmt.Errorf("group %v agg %d: %f != %f", ga.Key, j, ga.Values[j], gb.Values[j])
			}
		}
	}
	return nil
}
