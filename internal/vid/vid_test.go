package vid

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocateMonotonic(t *testing.T) {
	a := NewAllocator()
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		v := a.Allocate()
		if v <= prev {
			t.Fatalf("Allocate not monotonic: got %d after %d", v, prev)
		}
		prev = v
	}
}

func TestWatermarkInOrderPublish(t *testing.T) {
	a := NewAllocator()
	for i := 1; i <= 10; i++ {
		v := a.Allocate()
		a.Publish(v)
		if got := a.Watermark(); got != uint64(i) {
			t.Fatalf("watermark = %d, want %d", got, i)
		}
	}
}

func TestWatermarkOutOfOrderPublish(t *testing.T) {
	a := NewAllocator()
	v1, v2, v3 := a.Allocate(), a.Allocate(), a.Allocate()
	a.Publish(v3)
	if a.Watermark() != 0 {
		t.Fatalf("watermark advanced past unpublished VIDs: %d", a.Watermark())
	}
	a.Publish(v1)
	if a.Watermark() != v1 {
		t.Fatalf("watermark = %d, want %d", a.Watermark(), v1)
	}
	a.Publish(v2)
	if a.Watermark() != v3 {
		t.Fatalf("watermark = %d, want %d", a.Watermark(), v3)
	}
}

func TestConcurrentPublish(t *testing.T) {
	a := NewAllocator()
	const n = 500
	vids := make([]uint64, n)
	for i := range vids {
		vids[i] = a.Allocate()
	}
	rand.New(rand.NewSource(42)).Shuffle(n, func(i, j int) { vids[i], vids[j] = vids[j], vids[i] })
	var wg sync.WaitGroup
	for _, v := range vids {
		wg.Add(1)
		go func(v uint64) {
			defer wg.Done()
			a.Publish(v)
		}(v)
	}
	wg.Wait()
	if a.Watermark() != uint64(n) {
		t.Fatalf("watermark = %d, want %d", a.Watermark(), n)
	}
	if v := a.Allocate(); v != n+1 {
		t.Fatalf("Allocate after %d VIDs = %d", n, v)
	}
}

// Property: the watermark never exceeds the number of published VIDs and
// equals the length of the contiguous published prefix.
func TestWatermarkPrefixProperty(t *testing.T) {
	f := func(perm []uint8) bool {
		n := len(perm)
		if n == 0 {
			return true
		}
		a := NewAllocator()
		vids := make([]uint64, n)
		for i := range vids {
			vids[i] = a.Allocate()
		}
		// Derive a publish order from perm (stable pseudo-shuffle).
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := int(perm[i%len(perm)]) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		published := make(map[uint64]bool)
		for _, idx := range order {
			a.Publish(vids[idx])
			published[vids[idx]] = true
			// Compute expected contiguous prefix.
			want := uint64(0)
			for published[want+1] {
				want++
			}
			if a.Watermark() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
