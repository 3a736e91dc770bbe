package index

import (
	"math/rand"
	"sync"
	"testing"
)

// TestHashGetOrPutBatch checks the batched get-or-create against the
// single-key path: same residents, correct inserted flags, duplicate
// keys in one batch converging on one entry.
func TestHashGetOrPutBatch(t *testing.T) {
	h := NewHash[*int](64)
	pre := 17
	h.PutIfAbsent(100, &pre)

	keys := []uint64{1, 100, 2, 1, 3, 100}
	out := make([]*int, len(keys))
	inserted := make([]bool, len(keys))
	made := 0
	h.GetOrPutBatch(keys, func(k uint64) *int {
		made++
		v := int(k)
		return &v
	}, out, inserted)

	if out[1] != &pre || out[5] != &pre {
		t.Fatal("pre-existing entry was not returned for key 100")
	}
	if inserted[1] || inserted[5] {
		t.Fatal("pre-existing key reported as inserted")
	}
	if !inserted[0] || !inserted[2] || !inserted[4] {
		t.Fatalf("fresh keys not reported inserted: %v", inserted)
	}
	if inserted[3] {
		t.Fatal("duplicate key in batch reported inserted twice")
	}
	if out[0] != out[3] {
		t.Fatal("duplicate keys in one batch did not converge on one value")
	}
	if made != 3 {
		t.Fatalf("mk called %d times, want 3", made)
	}
	for i, k := range keys {
		got, ok := h.Get(k)
		if !ok || got != out[i] {
			t.Fatalf("Get(%d) disagrees with batch result", k)
		}
	}
}

// TestHashGetOrPutBatchRandomized cross-checks batch and single-key
// paths over random keys, including concurrent batches.
func TestHashGetOrPutBatchRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHash[uint64](1024)
	oracle := make(map[uint64]uint64)
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(200)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() % 5000
		}
		out := make([]uint64, n)
		inserted := make([]bool, n)
		h.GetOrPutBatch(keys, func(k uint64) uint64 { return k * 3 }, out, inserted)
		for i, k := range keys {
			want, existed := oracle[k]
			if !existed {
				want = k * 3
				oracle[k] = want
			}
			if out[i] != want {
				t.Fatalf("round %d key %d: got %d want %d", round, k, out[i], want)
			}
		}
	}
	if n := hashLen(h); n != len(oracle) {
		t.Fatalf("Len = %d, oracle has %d", n, len(oracle))
	}

	// Concurrent batches over an overlapping key space: all callers must
	// converge on one value per key.
	h2 := NewHash[*int](256)
	var wg sync.WaitGroup
	results := make([][]*int, 8)
	keys := make([]uint64, 512)
	for i := range keys {
		keys[i] = uint64(i % 128)
	}
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]*int, len(keys))
			h2.GetOrPutBatch(keys, func(k uint64) *int { v := int(k); return &v }, out, make([]bool, len(keys)))
			results[g] = out
		}()
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range keys {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d got a different value for key %d", g, keys[i])
			}
		}
	}
}

// TestSkipListPutBatch checks batched ordered insert against Put:
// replacement semantics, iteration order, and interleaving with
// lock-free readers.
func TestSkipListPutBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sl := NewSkipList[int](1)
	oracle := make(map[uint64]int)
	// Seed through the single-key path.
	for i := 0; i < 300; i++ {
		k := rng.Uint64() % 2000
		sl.Put(k, int(k))
		oracle[k] = int(k)
	}
	// Batches of unsorted keys, overlapping the seeded range.
	for round := 0; round < 30; round++ {
		n := 1 + rng.Intn(100)
		keys := make([]uint64, n)
		vals := make([]int, n)
		for i := range keys {
			keys[i] = rng.Uint64() % 2500
			vals[i] = round*10000 + i
		}
		sl.PutBatch(keys, vals)
		// Duplicate keys within a batch apply in input order (stable
		// sort), so the plain sequential oracle matches.
		for i, k := range keys {
			oracle[k] = vals[i]
		}
	}
	if n := slLen(sl); n != len(oracle) {
		t.Fatalf("Len = %d, oracle has %d", n, len(oracle))
	}
	for k, want := range oracle {
		got, ok := slGet(sl, k)
		if !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v want %d", k, got, ok, want)
		}
	}
	// Ascending iteration with no duplicates.
	var prev uint64
	first := true
	n := 0
	for it := sl.Min(); it.Valid(); it.Next() {
		if !first && it.Key() <= prev {
			t.Fatalf("iteration not strictly ascending: %d after %d", it.Key(), prev)
		}
		prev, first = it.Key(), false
		n++
	}
	if n != len(oracle) {
		t.Fatalf("iterated %d entries, want %d", n, len(oracle))
	}
}

// TestSkipListPutBatchConcurrentReaders hammers PutBatch while readers
// iterate; run under -race this pins the lock-free publication order.
func TestSkipListPutBatchConcurrentReaders(t *testing.T) {
	sl := NewSkipList[uint64](3)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var prev uint64
				first := true
				for it := sl.Seek(0); it.Valid(); it.Next() {
					if !first && it.Key() < prev {
						t.Error("reader observed out-of-order keys")
						return
					}
					if it.Value() != it.Key()*7 {
						t.Error("reader observed torn value")
						return
					}
					prev, first = it.Key(), false
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(64)
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() % 10000
			vals[i] = keys[i] * 7
		}
		sl.PutBatch(keys, vals)
	}
	close(stop)
	wg.Wait()
}
