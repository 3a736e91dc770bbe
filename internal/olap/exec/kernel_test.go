package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"batchdb/internal/baseline"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/storage"
)

// kernelFixture is one random schema, a partition of random tuples of
// it with some deleted (their slots keep their bytes: tombstones), and
// the pools its values were drawn from.
type kernelFixture struct {
	s    *storage.Schema
	part *olap.Partition
	ints []int64
	flts []float64
	strs []string
}

var kernelTypes = []storage.Type{storage.Int64, storage.Int32, storage.Float64, storage.Time, storage.String}

func newKernelFixture(t *testing.T, rng *rand.Rand, rows int) *kernelFixture {
	t.Helper()
	f := &kernelFixture{
		ints: []int64{math.MinInt64, math.MinInt32, -1 << 40, -7, -1, 0, 1, 2, 3, 7, 1 << 20, math.MaxInt32, math.MaxInt64},
		flts: []float64{math.Inf(-1), -1e9, -2.5, -1, 0, 0.5, 1, 2.5, 1e9, math.Inf(1)},
		strs: []string{"", "a", "ab", "abc", "b", "ba", "cab", "Complaints", "xComplaintsy"},
	}
	// Every type at least once, then a few more at random.
	var cols []storage.Column
	for i, typ := range append(append([]storage.Type(nil), kernelTypes...), kernelTypes[rng.Intn(5)], kernelTypes[rng.Intn(5)]) {
		c := storage.Column{Name: fmt.Sprintf("c%d", i), Type: typ}
		if typ == storage.String {
			c.Size = 1 + rng.Intn(14)
		}
		cols = append(cols, c)
	}
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	f.s = storage.NewSchema(1, "random", cols, []int{0})
	f.part = olap.NewPartition(f.s, rows)
	for r := 1; r <= rows; r++ {
		tup := f.s.NewTuple()
		for c, col := range cols {
			switch col.Type {
			case storage.Int64, storage.Time:
				f.s.PutInt64(tup, c, f.randInt(rng))
			case storage.Int32:
				f.s.PutInt32(tup, c, int32(f.randInt(rng)))
			case storage.Float64:
				f.s.PutFloat64(tup, c, f.flts[rng.Intn(len(f.flts))]*float64(1+rng.Intn(3)))
			case storage.String:
				f.s.PutString(tup, c, f.strs[rng.Intn(len(f.strs))])
			}
		}
		if err := f.part.Insert(uint64(r), tup); err != nil {
			t.Fatal(err)
		}
	}
	for r := 1; r <= rows; r += 1 + rng.Intn(4) {
		if err := f.part.Delete(uint64(r)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// randInt draws from the pool, or small values around it.
func (f *kernelFixture) randInt(rng *rand.Rand) int64 {
	if rng.Intn(3) == 0 {
		return rng.Int63n(41) - 20
	}
	return f.ints[rng.Intn(len(f.ints))]
}

// colsOf lists the ordinals of the columns of the given types.
func (f *kernelFixture) colsOf(types ...storage.Type) []int {
	var out []int
	for c, col := range f.s.Columns {
		for _, typ := range types {
			if col.Type == typ {
				out = append(out, c)
			}
		}
	}
	return out
}

// randPred is a random conjunct on a random column, negated now and then.
func (f *kernelFixture) randPred(rng *rand.Rand) exec.Pred {
	c := rng.Intn(len(f.s.Columns))
	var p exec.Pred
	switch f.s.Columns[c].Type {
	case storage.Float64:
		lo, hi := f.flts[rng.Intn(len(f.flts))], f.flts[rng.Intn(len(f.flts))]
		p = exec.BetweenFloat(c, lo, hi)
	case storage.String:
		v := f.strs[rng.Intn(len(f.strs))]
		p = []func(int, string) exec.Pred{exec.HasPrefix, exec.EqualStr, exec.Contains}[rng.Intn(3)](c, v)
	default:
		clamp := func(v int64) int64 {
			if f.s.Columns[c].Type == storage.Int32 {
				return int64(int32(v))
			}
			return v
		}
		if rng.Intn(2) == 0 {
			p = exec.CmpInt(c, exec.Op(rng.Intn(5)), clamp(f.randInt(rng)))
		} else {
			p = exec.BetweenInt(c, clamp(f.randInt(rng)), clamp(f.randInt(rng)))
		}
	}
	if rng.Intn(4) == 0 {
		p = exec.Not(p)
	}
	return p
}

// randKey is a random key of 1 to MaxKeyFields fields over the integer
// columns: shifted columns, now and then a MulMod.
func (f *kernelFixture) randKey(rng *rand.Rand) []exec.KeyField {
	ints := f.colsOf(storage.Int64, storage.Int32)
	key := make([]exec.KeyField, 1+rng.Intn(exec.MaxKeyFields))
	for i := range key {
		a := ints[rng.Intn(len(ints))]
		key[i] = exec.KeyCol(a, uint8(rng.Intn(64)))
		if rng.Intn(3) == 0 {
			mods := []int64{1, 7, 10000, 1 << 40, math.MaxInt64}
			key[i] = exec.MulMod(a, ints[rng.Intn(len(ints))], mods[rng.Intn(len(mods))])
			key[i].Shift = uint8(rng.Intn(64))
		}
	}
	return key
}

// randSlots is a vector of n slots of the partition, live and dead, in
// random order.
func (f *kernelFixture) randSlots(rng *rand.Rand, n int) []int32 {
	slots := make([]int32, n)
	for i := range slots {
		slots[i] = int32(rng.Intn(f.part.Slots()))
	}
	return slots
}

// TestKernelsMatchBaseline holds every vector kernel to
// internal/baseline's scalar evaluator of the same declaration, which
// shares no code with it: over random schemas and random tuples, and
// vectors of n ∈ {1, 63, 64, 65, 1024} random slots including
// tombstones, the filter kernels agree with
// baseline.Accepts on integer, time and float bounds, negative values,
// IN sets and every string op, each also negated; the key kernels agree
// with baseline.KeyOf on shifted multi-field keys and MulMod; the column
// reads agree with baseline.Summand and storage's OrdKey.
func TestKernelsMatchBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		f := newKernelFixture(t, rng, 300+rng.Intn(900))
		for _, n := range []int{1, 63, 64, 65, 1024} {
			slots := f.randSlots(rng, n)
			label := fmt.Sprintf("trial %d n=%d", trial, n)

			for round := 0; round < 8; round++ {
				preds := make([]exec.Pred, 1+rng.Intn(3))
				for i := range preds {
					preds[i] = f.randPred(rng)
					kinds[fmt.Sprintf("%d/not=%v", preds[i].Kind, preds[i].Not)]++
				}
				vec, err := exec.FilterVector(f.s, preds, f.part, slots)
				if err != nil {
					t.Fatalf("%s %+v: %v", label, preds, err)
				}
				for i, slot := range slots {
					want := baseline.Accepts(f.s, preds, f.part.Tuple(slot))
					if vec[i] != want {
						t.Fatalf("%s %+v slot %d: kernel %v, baseline %v", label, preds, slot, vec[i], want)
					}
				}

				key := f.randKey(rng)
				keys, err := exec.KeysVector(f.s, key, f.part, slots)
				if err != nil {
					t.Fatalf("%s key %+v: %v", label, key, err)
				}
				for i, slot := range slots {
					if want := baseline.KeyOf(f.s, key, f.part.Tuple(slot)); keys[i] != want {
						t.Fatalf("%s key %+v slot %d: kernel %#x, baseline %#x", label, key, slot, keys[i], want)
					}
				}
			}

			for _, c := range f.colsOf(storage.Int64, storage.Int32, storage.Float64, storage.Time) {
				sums, ords, err := exec.ColumnVector(f.s, c, f.part, slots)
				if err != nil {
					t.Fatal(err)
				}
				for i, slot := range slots {
					tup := f.part.Tuple(slot)
					want := baseline.Summand(f.s, exec.SumCol(c), tup)
					if math.Float64bits(sums[i]) != math.Float64bits(want) || ords[i] != f.s.OrdKey(tup, c) {
						t.Fatalf("%s column %d slot %d: kernel %v/%d, baseline %v/%d", label, c, slot, sums[i], ords[i], want, f.s.OrdKey(tup, c))
					}
				}
			}
		}
	}
	// Every kind, plain and negated, was drawn.
	for _, k := range []exec.PredKind{exec.IntRange, exec.FloatRange, exec.StrPrefix, exec.StrEqual, exec.StrContains} {
		for _, not := range []bool{false, true} {
			if kinds[fmt.Sprintf("%d/not=%v", k, not)] == 0 {
				t.Errorf("no predicate of kind %d (not=%v) drawn", k, not)
			}
		}
	}
}
