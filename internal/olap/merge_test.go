package olap

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
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

// TestMergeMatchesStableSort pins the merge to a model: the streams
// concatenated in stream order and stably sorted by VID — so equal-VID
// runs keep their order and cross-stream VID ties go to the earlier
// stream — entry for entry.
func TestMergeMatchesStableSort(t *testing.T) {
	for _, k := range []int{1, 2, 3, 9, 16, 33} {
		for seed := int64(0); seed < 5; seed++ {
			ws := makeMergeStreams(k, 50+int(seed)*37, seed)
			var want []*proplog.Entry
			for _, s := range ws {
				for i := range s.entries {
					want = append(want, &s.entries[i])
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].VID < want[j].VID })
			if got := mergeByVIDInto(nil, ws); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d seed=%d: merge diverges from the stable sort", k, seed)
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
	got := mergeByVIDInto(nil, ws)
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i, v := range want {
		if got[i].VID != v {
			t.Fatalf("entry %d VID %d, want %d", i, got[i].VID, v)
		}
	}
}

// BenchmarkMergeByVID measures the merge across stream counts: O(k) per
// run of equal-VID entries.
func BenchmarkMergeByVID(b *testing.B) {
	const totalEntries = 1 << 16
	for _, k := range []int{2, 4, 8, 16, 64} {
		ws := makeMergeStreams(k, totalEntries/k, 42)
		out := make([]*proplog.Entry, 0, totalEntries+k*4)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out = mergeByVIDInto(out[:0], ws)
			}
		})
	}
}
