package index

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// anyValue is the CompareAndDelete predicate that deletes whatever the
// key holds.
func anyValue[V any](V) bool { return true }

// hashLen counts h's entries through Range.
func hashLen[V any](h *Hash[V]) int {
	n := 0
	h.Range(func(uint64, V) bool { n++; return true })
	return n
}

// hashPut stores v under key, replacing any entry.
func hashPut[V any](h *Hash[V], key uint64, v V) {
	h.CompareAndDelete(key, anyValue[V])
	h.PutIfAbsent(key, v)
}

// slGet is a point lookup through Seek, the list's reader path.
func slGet[V any](s *SkipList[V], key uint64) (V, bool) {
	if it := s.Seek(key); it.Valid() && it.Key() == key {
		return it.Value(), true
	}
	var zero V
	return zero, false
}

// slLen counts s's keys by iteration.
func slLen[V any](s *SkipList[V]) int {
	n := 0
	for it := s.Min(); it.Valid(); it.Next() {
		n++
	}
	return n
}

// --- Hash --------------------------------------------------------------

func TestHashBasic(t *testing.T) {
	h := NewHash[string](16)
	if _, ok := h.Get(1); ok {
		t.Fatal("Get on empty index returned ok")
	}
	h.PutIfAbsent(1, "a")
	h.PutIfAbsent(2, "b")
	if v, ok := h.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q,%v", v, ok)
	}
	if hashLen(h) != 2 {
		t.Fatalf("Len = %d", hashLen(h))
	}
	if h.CompareAndDelete(1, func(v string) bool { return v == "b" }) {
		t.Fatal("CompareAndDelete removed an entry whose value did not match")
	}
	if !h.CompareAndDelete(1, anyValue[string]) || h.CompareAndDelete(1, anyValue[string]) {
		t.Fatal("CompareAndDelete semantics wrong")
	}
	if hashLen(h) != 1 {
		t.Fatalf("Len after delete = %d", hashLen(h))
	}
}

func TestHashPutIfAbsent(t *testing.T) {
	h := NewHash[int](16)
	if v, inserted := h.PutIfAbsent(7, 100); !inserted || v != 100 {
		t.Fatalf("first PutIfAbsent = %d,%v", v, inserted)
	}
	if v, inserted := h.PutIfAbsent(7, 200); inserted || v != 100 {
		t.Fatalf("second PutIfAbsent = %d,%v", v, inserted)
	}
}

func TestHashRange(t *testing.T) {
	h := NewHash[int](16)
	for i := uint64(0); i < 100; i++ {
		h.PutIfAbsent(i, int(i)*2)
	}
	seen := make(map[uint64]int)
	h.Range(func(k uint64, v int) bool {
		seen[k] = v
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("Range visited %d entries", len(seen))
	}
	for k, v := range seen {
		if v != int(k)*2 {
			t.Fatalf("Range saw %d -> %d", k, v)
		}
	}
	// Early termination.
	n := 0
	h.Range(func(uint64, int) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("Range early stop visited %d", n)
	}
}

func TestHashConcurrent(t *testing.T) {
	h := NewHash[uint64](1024)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * perWorker)
			for i := uint64(0); i < perWorker; i++ {
				h.PutIfAbsent(base+i, base+i)
			}
			for i := uint64(0); i < perWorker; i++ {
				if v, ok := h.Get(base + i); !ok || v != base+i {
					t.Errorf("worker %d lost key %d", w, base+i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := hashLen(h); n != workers*perWorker {
		t.Fatalf("Len = %d, want %d", n, workers*perWorker)
	}
}

// Property: Hash agrees with a reference map under a random operation
// sequence.
func TestHashMatchesReference(t *testing.T) {
	f := func(ops []struct {
		Key uint64
		Val int
		Del bool
	}) bool {
		h := NewHash[int](16)
		ref := make(map[uint64]int)
		for _, op := range ops {
			k := op.Key % 64 // force collisions
			if op.Del {
				delete(ref, k)
				h.CompareAndDelete(k, anyValue[int])
			} else {
				ref[k] = op.Val
				hashPut(h, k, op.Val)
			}
		}
		if hashLen(h) != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := h.Get(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- SkipList ----------------------------------------------------------

func TestSkipListBasic(t *testing.T) {
	s := NewSkipList[string](1)
	if _, ok := slGet(s, 5); ok {
		t.Fatal("Get on empty list returned ok")
	}
	s.Put(5, "five")
	s.Put(1, "one")
	s.Put(9, "nine")
	if v, ok := slGet(s, 5); !ok || v != "five" {
		t.Fatalf("Get(5) = %q,%v", v, ok)
	}
	s.Put(5, "FIVE")
	if v, _ := slGet(s, 5); v != "FIVE" {
		t.Fatalf("replace failed: %q", v)
	}
	if slLen(s) != 3 {
		t.Fatalf("Len = %d", slLen(s))
	}
	if s.CompareAndDelete(5, func(v string) bool { return v == "five" }) {
		t.Fatal("CompareAndDelete removed an entry whose value did not match")
	}
	if !s.CompareAndDelete(5, anyValue[string]) || s.CompareAndDelete(5, anyValue[string]) {
		t.Fatal("CompareAndDelete semantics wrong")
	}
	if _, ok := slGet(s, 5); ok {
		t.Fatal("deleted key still present")
	}
}

func TestSkipListOrderedIteration(t *testing.T) {
	s := NewSkipList[int](2)
	keys := rand.New(rand.NewSource(3)).Perm(500)
	for _, k := range keys {
		s.Put(uint64(k), k)
	}
	var got []uint64
	for it := s.Min(); it.Valid(); it.Next() {
		got = append(got, it.Key())
		if it.Value() != int(it.Key()) {
			t.Fatalf("value mismatch at key %d", it.Key())
		}
	}
	if len(got) != 500 {
		t.Fatalf("iterated %d keys", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("iteration not in key order")
	}
}

func TestSkipListSeek(t *testing.T) {
	s := NewSkipList[int](4)
	for _, k := range []uint64{10, 20, 30, 40} {
		s.Put(k, int(k))
	}
	cases := []struct {
		seek uint64
		want uint64
		ok   bool
	}{
		{0, 10, true}, {10, 10, true}, {11, 20, true},
		{40, 40, true}, {41, 0, false},
	}
	for _, c := range cases {
		it := s.Seek(c.seek)
		if it.Valid() != c.ok {
			t.Fatalf("Seek(%d).Valid = %v", c.seek, it.Valid())
		}
		if c.ok && it.Key() != c.want {
			t.Fatalf("Seek(%d) = %d, want %d", c.seek, it.Key(), c.want)
		}
	}
}

// Property: SkipList agrees with a reference map and iterates in sorted
// order under random operations.
func TestSkipListMatchesReference(t *testing.T) {
	f := func(ops []struct {
		Key uint64
		Val int
		Del bool
	}) bool {
		s := NewSkipList[int](7)
		ref := make(map[uint64]int)
		for _, op := range ops {
			k := op.Key % 128
			if op.Del {
				delete(ref, k)
				s.CompareAndDelete(k, anyValue[int])
			} else {
				ref[k] = op.Val
				s.Put(k, op.Val)
			}
		}
		var prev uint64
		first := true
		count := 0
		for it := s.Min(); it.Valid(); it.Next() {
			if !first && it.Key() <= prev {
				return false
			}
			first, prev = false, it.Key()
			if v, ok := ref[it.Key()]; !ok || v != it.Value() {
				return false
			}
			count++
		}
		return count == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent readers must never block or observe broken structure while
// a writer inserts and deletes.
func TestSkipListConcurrentReadersWriter(t *testing.T) {
	s := NewSkipList[uint64](11)
	for i := uint64(0); i < 1000; i += 2 {
		s.Put(i, i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Even keys are permanent: they must always be found.
				k := uint64(rand.Intn(500)) * 2
				if v, ok := slGet(s, k); !ok || v != k {
					t.Errorf("lost permanent key %d", k)
					return
				}
				// Iteration must stay sorted.
				prev, n := uint64(0), 0
				for it := s.Seek(k); it.Valid() && n < 50; it.Next() {
					if n > 0 && it.Key() <= prev {
						t.Errorf("unsorted iteration near %d", k)
						return
					}
					prev = it.Key()
					n++
				}
			}
		}()
	}
	// Writer churns odd keys.
	for i := 0; i < 20000; i++ {
		k := uint64(rand.Intn(500))*2 + 1
		if i%2 == 0 {
			s.Put(k, k)
		} else {
			s.CompareAndDelete(k, anyValue[uint64])
		}
	}
	close(stop)
	wg.Wait()
}

func TestSkipListDeleteTallNode(t *testing.T) {
	// Insert enough keys that some nodes are multi-level, then delete
	// every key and verify emptiness.
	s := NewSkipList[int](13)
	for i := uint64(0); i < 2000; i++ {
		s.Put(i, int(i))
	}
	for i := uint64(0); i < 2000; i++ {
		if !s.CompareAndDelete(i, anyValue[int]) {
			t.Fatalf("CompareAndDelete(%d) = false", i)
		}
	}
	if s.Min().Valid() {
		t.Fatal("list not empty after deleting all keys")
	}
}
