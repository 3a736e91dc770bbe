package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBucketIndexMonotonic(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1 << 40, math.MaxInt64} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotonic at %d: %d < %d", v, i, prev)
		}
		prev = i
	}
}

func TestBucketRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1 << 40)
		bv := bucketValue(bucketIndex(v))
		if bv < v {
			t.Fatalf("bucket upper edge %d below value %d", bv, v)
		}
		if v > 64 {
			rel := float64(bv-v) / float64(v)
			if rel > 0.04 {
				t.Fatalf("relative error %.3f at value %d (edge %d)", rel, v, bv)
			}
		}
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := &Histogram{}
	// Uniform 1..1000.
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d", s.Count)
	}
	checks := []struct {
		p    float64
		want int64
	}{{50, 500}, {90, 900}, {99, 990}, {100, 1000}}
	for _, c := range checks {
		got := s.Percentile(c.p)
		if float64(got) < float64(c.want)*0.95 || float64(got) > float64(c.want)*1.08 {
			t.Errorf("p%.0f = %d, want ~%d", c.p, got, c.want)
		}
	}
	if s.Max != 1000 {
		t.Errorf("Max = %d", s.Max)
	}
	if m := float64(s.Sum) / float64(s.Count); m < 495 || m > 506 {
		t.Errorf("Mean = %f", m)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	s := h.Snapshot()
	if s.Percentile(99) != 0 || s.Sum != 0 || s.Count != 0 {
		t.Fatal("empty histogram not zero")
	}
}

// Property: histogram percentile is within 4% of the exact percentile
// for arbitrary positive samples.
func TestPercentileAccuracyProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := &Histogram{}
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r%1000000) + 100
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := h.Snapshot()
		for _, p := range []float64{50, 90, 99} {
			rank := int(math.Ceil(p/100*float64(len(vals)))) - 1
			if rank < 0 {
				rank = 0
			}
			exact := vals[rank]
			got := s.Percentile(p)
			if float64(got) < float64(exact) || float64(got) > float64(exact)*1.04+32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 10000; i++ {
				h.Record(i % 1000)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 40000 {
		t.Fatalf("Count = %d", s.Count)
	}
}

func TestCounterAndRate(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Load() != 10 {
		t.Fatalf("Load = %d", c.Load())
	}
}

func TestBusyTracker(t *testing.T) {
	var b BusyTracker
	b.Track(250 * time.Millisecond)
	b.Track(250 * time.Millisecond)
	if b.Busy() != 500*time.Millisecond {
		t.Fatalf("Busy = %v, want 500ms", b.Busy())
	}
	start := time.Now().Add(-time.Second)
	d := b.TrackSince(start)
	if d < time.Second {
		t.Fatalf("TrackSince = %v, want >= 1s", d)
	}
	if b.Busy() != 500*time.Millisecond+d {
		t.Fatalf("Busy = %v, want %v", b.Busy(), 500*time.Millisecond+d)
	}
}
