package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram records int64 samples (typically latencies in nanoseconds)
// into logarithmically spaced buckets: 64 powers of two, each split into
// 32 linear sub-buckets, giving a worst-case relative error of about 3%
// — ample for percentile reporting (the 50th/90th/99th percentile plots
// of paper Figs. 5b, 7b, 7e). All methods are safe for concurrent use.
type Histogram struct {
	buckets [64 * 32]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 32 {
		return int(v) // first power covers 0..31 exactly
	}
	// Major = position of the highest set bit; minor = next 5 bits.
	major := 63 - leadingZeros(uint64(v))
	minor := (v >> (uint(major) - 5)) & 31
	return major*32 + int(minor)
}

func leadingZeros(v uint64) int {
	n := 0
	for i := 63; i >= 0; i-- {
		if v&(1<<uint(i)) != 0 {
			return n
		}
		n++
	}
	return 64
}

// bucketValue returns a representative value (upper edge) for bucket i.
func bucketValue(i int) int64 {
	major := i / 32
	minor := i % 32
	if major < 5 {
		return int64(i%32) | int64(major)<<5 // exact low range
	}
	base := int64(1) << uint(major)
	step := base / 32
	return base + int64(minor+1)*step - 1
}

// Record adds one sample. The count is incremented last — it publishes
// the sample, so a Snapshot whose bucket mass equals a stable count read
// has seen every published sample's bucket increment.
func (h *Histogram) Record(v int64) {
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
}

// RecordSince records the elapsed time since start in nanoseconds.
func (h *Histogram) RecordSince(start time.Time) { h.Record(int64(time.Since(start))) }

// Snapshot is a coherent point-in-time copy of a Histogram: its Count
// always equals the sum of its Buckets, so ranks computed from Count
// can never run past the bucket mass (the incoherence a raw concurrent
// read suffers from).
type Snapshot struct {
	Buckets [64 * 32]uint64
	Count   uint64
	Sum     int64
	Max     int64
	// Exact reports that the copy was taken in a quiescent instant
	// (count stable across the bucket scan): Sum is then the exact
	// sample sum. Otherwise Count/Buckets are still mutually coherent
	// but Sum is reconstructed from bucket edges (<= ~3% relative
	// error), keeping Sum/Count inside the recorded value range.
	Exact bool
}

// Snapshot takes a coherent copy. It retries a few times waiting for a
// quiescent instant; under sustained concurrent recording it falls back
// to bucket-derived totals, which are internally consistent by
// construction.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for attempt := 0; ; attempt++ {
		c1 := h.count.Load()
		s.Sum = h.sum.Load()
		s.Max = h.max.Load()
		var total uint64
		for i := range h.buckets {
			v := h.buckets[i].Load()
			s.Buckets[i] = v
			total += v
		}
		if h.count.Load() == c1 && total == c1 {
			s.Count = total
			s.Exact = true
			return s
		}
		if attempt >= 3 {
			// Concurrent writers kept the counters moving: publish the
			// bucket cut as the truth and reconstruct the sum from it.
			s.Count = total
			s.Sum = 0
			for i, n := range s.Buckets {
				if n > 0 {
					s.Sum += int64(n) * bucketValue(i)
				}
			}
			s.Exact = false
			return s
		}
	}
}

// Delta returns the samples recorded between prev and s as a snapshot
// of their own: the windowed view an SLO governor samples from a
// cumulative histogram. prev must be an earlier snapshot of the same
// histogram; buckets are subtracted with clamping so a mismatched pair
// degrades to zeros rather than underflowing. Max is inherited from s
// (an upper bound — the true window max is not recoverable), and Sum is
// taken as the exact difference only when both snapshots were exact.
func (s *Snapshot) Delta(prev *Snapshot) Snapshot {
	var d Snapshot
	var total uint64
	for i := range s.Buckets {
		if s.Buckets[i] > prev.Buckets[i] {
			d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
			total += d.Buckets[i]
		}
	}
	d.Count = total
	d.Max = s.Max
	if s.Exact && prev.Exact && s.Sum >= prev.Sum {
		d.Sum = s.Sum - prev.Sum
		d.Exact = true
	} else {
		for i, n := range d.Buckets {
			if n > 0 {
				d.Sum += int64(n) * bucketValue(i)
			}
		}
	}
	return d
}

// Percentile returns the value at quantile p in [0,100] — the upper
// edge of the bucket containing the p-th sample of this snapshot.
func (s *Snapshot) Percentile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range s.Buckets {
		seen += s.Buckets[i]
		if seen >= rank {
			return bucketValue(i)
		}
	}
	return s.Max
}

// Counter is a concurrent event counter.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.n.Load() }

// Gauge is a concurrent instantaneous value (e.g. the number of
// currently connected replicas, or seconds spent degraded).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d (d may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// BusyTracker accounts wall-clock busy time for one component (e.g. the
// OLTP worker pool). Workers wrap their work in Track; Busy over
// elapsed * cores is the quantity plotted in the paper's
// CPU-utilization figures (Figs. 7c and 8).
type BusyTracker struct {
	busy atomic.Int64 // nanoseconds
}

// Track records d of busy time.
func (b *BusyTracker) Track(d time.Duration) { b.busy.Add(int64(d)) }

// TrackSince records busy time since start and returns the duration.
func (b *BusyTracker) TrackSince(start time.Time) time.Duration {
	d := time.Since(start)
	b.busy.Add(int64(d))
	return d
}

// Busy returns the accumulated busy time.
func (b *BusyTracker) Busy() time.Duration { return time.Duration(b.busy.Load()) }
