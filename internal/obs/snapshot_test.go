package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

// A Snapshot taken while writers hammer Record must be internally
// coherent: its Count equals its bucket mass, and percentiles/mean stay
// inside the recorded value range. Before the snapshot rework,
// Percentile read count and buckets independently and Mean paired a
// fresh sum with a stale count — with all samples equal to v, the mean
// could exceed v.
func TestHistogramSnapshotCoherentUnderConcurrentRecord(t *testing.T) {
	v := int64(123456)
	lo, hi := int64(float64(v)*0.96), int64(float64(v)*1.04)

	var h Histogram
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				h.Record(v)
			}
		}()
	}

	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		var mass uint64
		for _, n := range s.Buckets {
			mass += n
		}
		if mass != s.Count {
			t.Fatalf("iteration %d: snapshot count %d != bucket mass %d", i, s.Count, mass)
		}
		if s.Count == 0 {
			continue
		}
		for _, p := range []float64{0, 50, 90, 99, 100} {
			if got := s.Percentile(p); got < lo || got > hi {
				t.Fatalf("iteration %d: p%.0f = %d outside [%d, %d]", i, p, got, lo, hi)
			}
		}
		if m := float64(s.Sum) / float64(s.Count); m < float64(lo) || m > float64(hi) {
			t.Fatalf("iteration %d: mean %f outside [%d, %d] (exact=%v)", i, m, lo, hi, s.Exact)
		}
	}
	stop.Store(true)
	wg.Wait()

	// Quiescent now: the snapshot must be exact and agree with the live
	// accessors.
	s := h.Snapshot()
	if !s.Exact {
		t.Fatal("quiescent snapshot not exact")
	}
	if s.Count != h.count.Load() || s.Sum != h.sum.Load() || s.Max != h.max.Load() {
		t.Fatalf("quiescent snapshot (%d, %d, %d) != live (%d, %d, %d)",
			s.Count, s.Sum, s.Max, h.count.Load(), h.sum.Load(), h.max.Load())
	}
	if s.Sum != int64(s.Count)*v {
		t.Fatalf("exact sum %d != count %d * %d", s.Sum, s.Count, v)
	}
}

// Delta of two snapshots must describe exactly the samples recorded
// between them: counts, percentiles within bucket error, and coherence
// under concurrent recording (clamped, never negative).
func TestSnapshotDelta(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(1000) // 1µs era
	}
	s0 := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.Record(1000000) // 1ms era
	}
	s1 := h.Snapshot()
	d := s1.Delta(&s0)
	if d.Count != 50 {
		t.Fatalf("delta count %d, want 50", d.Count)
	}
	p99 := d.Percentile(99)
	if p99 < 960000 || p99 > 1040000 {
		t.Fatalf("delta p99 = %d, want ~1000000", p99)
	}
	// The cumulative histogram's p99 is also ~1ms here, but its p50
	// still sees the old 1µs mass — the delta's p50 must not.
	if p50 := d.Percentile(50); p50 < 960000 {
		t.Fatalf("delta p50 = %d, want ~1000000 (window excludes old samples)", p50)
	}
	if !d.Exact || d.Sum != 50*1000000 {
		t.Fatalf("delta sum %d exact=%v, want exact 50000000", d.Sum, d.Exact)
	}

	// Empty window.
	e := s1.Delta(&s1)
	if e.Count != 0 || e.Percentile(99) != 0 {
		t.Fatalf("self-delta not empty: count=%d", e.Count)
	}

	// Swapped arguments clamp to empty rather than underflow.
	sw := s0.Delta(&s1)
	if sw.Count != 0 {
		t.Fatalf("reversed delta count %d, want 0 (clamped)", sw.Count)
	}

	// Coherence under concurrent recording.
	var h2 Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h2.Record(500)
			}
		}
	}()
	prev := h2.Snapshot()
	for i := 0; i < 500; i++ {
		cur := h2.Snapshot()
		d := cur.Delta(&prev)
		var mass uint64
		for _, n := range d.Buckets {
			mass += n
		}
		if mass != d.Count {
			t.Fatalf("delta incoherent: count %d mass %d", d.Count, mass)
		}
		if d.Count > 0 {
			if p := d.Percentile(99); p < 480 || p > 520 {
				t.Fatalf("delta p99 %d outside recorded range", p)
			}
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
}
