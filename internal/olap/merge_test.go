package olap

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"batchdb/internal/proplog"
)

// makeMergeStreams builds k VID-sorted streams of roughly perStream
// entries each, with runs of equal-VID entries inside a stream and VID
// collisions across streams (distinct transactions can share no VID in
// the real system, but the merge must not care).
func makeMergeStreams(k, perStream int, seed int64) []workerStream {
	rng := rand.New(rand.NewSource(seed))
	ws := make([]workerStream, k)
	for i := range ws {
		ws[i] = workerStream{worker: i}
		vid := uint64(rng.Intn(8))
		for len(ws[i].entries) < perStream {
			vid += uint64(1 + rng.Intn(5))
			run := 1 + rng.Intn(4)
			for j := 0; j < run; j++ {
				ws[i].entries = append(ws[i].entries, proplog.Entry{
					VID:   vid,
					Kind:  proplog.Update,
					RowID: uint64(rng.Intn(1 << 20)),
				})
			}
		}
	}
	return ws
}

// TestMergeHeapMatchesLinear pins the heap strategy to the linear one:
// identical output entry-for-entry, including equal-VID run order and
// cross-stream VID-tie breaks.
func TestMergeHeapMatchesLinear(t *testing.T) {
	for _, k := range []int{1, 2, 3, 9, 16, 33} {
		for seed := int64(0); seed < 5; seed++ {
			ws := makeMergeStreams(k, 50+int(seed)*37, seed)
			lin := mergeLinearInto(nil, ws)
			hp := mergeHeapInto(nil, ws)
			if !reflect.DeepEqual(lin, hp) {
				t.Fatalf("k=%d seed=%d: heap merge diverges from linear", k, seed)
			}
			for i := 1; i < len(lin); i++ {
				if lin[i].VID < lin[i-1].VID {
					t.Fatalf("k=%d seed=%d: output not VID-ordered at %d", k, seed, i)
				}
			}
		}
	}
}

// TestMergeEmptyStreams covers streams that are empty or exhausted
// early.
func TestMergeEmptyStreams(t *testing.T) {
	ws := []workerStream{
		{worker: 0},
		{worker: 1, entries: []proplog.Entry{{VID: 3}, {VID: 7}}},
		{worker: 2},
		{worker: 3, entries: []proplog.Entry{{VID: 5}}},
	}
	want := []uint64{3, 5, 7}
	for name, got := range map[string][]*proplog.Entry{
		"linear": mergeLinearInto(nil, ws),
		"heap":   mergeHeapInto(nil, ws),
	} {
		if len(got) != len(want) {
			t.Fatalf("%s: got %d entries, want %d", name, len(got), len(want))
		}
		for i, v := range want {
			if got[i].VID != v {
				t.Fatalf("%s: entry %d VID %d, want %d", name, i, got[i].VID, v)
			}
		}
	}
}

// BenchmarkMergeByVID measures both merge strategies across stream
// counts to locate the crossover justifying mergeHeapThreshold: the
// linear min-scan is O(k) per run and wins for few streams; the heap is
// O(log k) per run and wins as streams multiply.
func BenchmarkMergeByVID(b *testing.B) {
	const totalEntries = 1 << 16
	for _, k := range []int{2, 4, 8, 16, 64} {
		ws := makeMergeStreams(k, totalEntries/k, 42)
		out := make([]*proplog.Entry, 0, totalEntries+k*4)
		b.Run(fmt.Sprintf("linear/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out = mergeLinearInto(out[:0], ws)
			}
		})
		b.Run(fmt.Sprintf("heap/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out = mergeHeapInto(out[:0], ws)
			}
		})
	}
}
