package obs

import (
	"testing"
	"time"
)

// fakeClock drives Freshness deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeFreshness() (*Freshness, *fakeClock) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	f := NewFreshness()
	f.Now = c.now
	return f, c
}

func TestFreshnessCaughtUp(t *testing.T) {
	f, c := newFakeFreshness()
	f.ObserveWatermark(10, true)
	f.ObserveInstall(10)
	if lag := f.VIDLag(); lag != 0 {
		t.Fatalf("lag %d, want 0", lag)
	}
	if s := f.StalenessNanos(); s != 0 {
		t.Fatalf("staleness %d, want 0", s)
	}
	// Confirmed syncs at the same watermark keep staleness near zero.
	c.advance(time.Second)
	f.ObserveWatermark(10, true)
	if s := f.StalenessNanos(); s != 0 {
		t.Fatalf("staleness after confirmed re-sync %d, want 0", s)
	}
}

func TestFreshnessLagAndStalenessBehind(t *testing.T) {
	f, c := newFakeFreshness()
	f.ObserveWatermark(10, true)
	f.ObserveInstall(10)
	c.advance(time.Second)
	f.ObserveWatermark(25, true) // primary moved on; install hasn't
	if lag := f.VIDLag(); lag != 15 {
		t.Fatalf("lag %d, want 15", lag)
	}
	c.advance(2 * time.Second)
	// Snapshot at 10 has been missing vid>10 since the watermark-25
	// observation two seconds ago.
	if s := f.StalenessNanos(); s != int64(2*time.Second) {
		t.Fatalf("staleness %d, want %d", s, int64(2*time.Second))
	}
	f.ObserveInstall(25)
	if lag := f.VIDLag(); lag != 0 {
		t.Fatalf("lag after install %d, want 0", lag)
	}
	// The snapshot now covers everything the last confirmed sync saw —
	// but that sync was two seconds ago, and commits since then are
	// unknown, so staleness anchors there instead of resetting.
	if s := f.StalenessNanos(); s != int64(2*time.Second) {
		t.Fatalf("staleness after catch-up install %d, want %d", s, int64(2*time.Second))
	}
	// A fresh confirmed sync at the same watermark re-anchors it to now.
	f.ObserveWatermark(25, true)
	if s := f.StalenessNanos(); s != 0 {
		t.Fatalf("staleness after confirmed re-sync %d, want 0", s)
	}
	if high := f.lagHigh.Load(); high != 15 {
		t.Fatalf("lag high %d, want 15", high)
	}
}

// During an outage the supervisor answers syncs with the replica's own
// covered VID (unconfirmed): staleness must keep rising even though the
// observed watermark is not moving, and collapse after a confirmed
// resync installs the backlog.
func TestFreshnessOutageRisesThenRecovers(t *testing.T) {
	f, c := newFakeFreshness()
	f.ObserveWatermark(100, true)
	f.ObserveInstall(100)
	// Clear the bootstrap spike (watermark 100 over installed 0), so the
	// high-watermark below is the outage's alone.
	f.lagHigh.Set(0)

	for i := 0; i < 5; i++ {
		c.advance(time.Second)
		f.ObserveWatermark(100, false) // degraded fallback
	}
	if s := f.StalenessNanos(); s != int64(5*time.Second) {
		t.Fatalf("staleness during outage %d, want %d", s, int64(5*time.Second))
	}
	if lag := f.VIDLag(); lag != 0 {
		t.Fatalf("vid lag during blind outage %d, want 0 (watermark unobservable)", lag)
	}

	// Reconnect: live sync reveals the backlog, then the apply window
	// installs it.
	c.advance(time.Second)
	f.ObserveWatermark(180, true)
	if lag := f.VIDLag(); lag != 80 {
		t.Fatalf("post-reconnect lag %d, want 80", lag)
	}
	f.ObserveInstall(180)
	if lag := f.VIDLag(); lag != 0 {
		t.Fatalf("post-install lag %d, want 0", lag)
	}
	if s := f.StalenessNanos(); s != 0 {
		t.Fatalf("post-install staleness %d, want 0", s)
	}
	if high := f.lagHigh.Load(); high != 80 {
		t.Fatalf("lag high %d, want 80 (the reconnect spike)", high)
	}
	if got := f.stalenessHist.count.Load(); got != 2 {
		t.Fatalf("staleness samples %d, want 2", got)
	}
}

func TestFreshnessInstallAheadOfWatermark(t *testing.T) {
	f, _ := newFakeFreshness()
	// A resync reload can install a VID never seen via SyncUpdates.
	f.ObserveInstall(50)
	if f.InstalledVID() != 50 || f.VIDLag() != 0 {
		t.Fatalf("installed %d lag %d, want 50/0", f.InstalledVID(), f.VIDLag())
	}
}

func TestFreshnessRingBounded(t *testing.T) {
	f, c := newFakeFreshness()
	for i := 1; i <= 3*maxRing; i++ {
		f.ObserveWatermark(uint64(i), true)
		c.advance(time.Millisecond)
	}
	f.mu.Lock()
	n := len(f.ring)
	f.mu.Unlock()
	if n > maxRing {
		t.Fatalf("ring grew to %d (cap %d)", n, maxRing)
	}
	// Staleness stays computable and bounded by total elapsed time.
	f.ObserveInstall(1)
	if s := f.StalenessNanos(); s <= 0 || s > int64(3*maxRing)*int64(time.Millisecond) {
		t.Fatalf("staleness %d out of range", s)
	}
}

func TestFreshnessRegisterExports(t *testing.T) {
	f, c := newFakeFreshness()
	reg := NewRegistry()
	f.Register(reg, L("class", "chbench"))
	f.ObserveWatermark(7, true)
	c.advance(time.Second)
	f.ObserveInstall(5)
	want := map[string]float64{
		"batchdb_freshness_vid_lag":        2,
		"batchdb_freshness_installed_vid":  5,
		"batchdb_freshness_watermark_vid":  7,
		"batchdb_freshness_installs_total": 1,
	}
	for name, v := range want {
		if got := findSample(t, reg.Samples(), name, L("class", "chbench")).Value; got != v {
			t.Fatalf("%s = %v, want %v", name, got, v)
		}
	}
	if got := findSample(t, reg.Samples(), "batchdb_freshness_staleness_ns", L("class", "chbench")).Value; got != float64(time.Second) {
		t.Fatalf("staleness gauge %v, want %v", got, float64(time.Second))
	}
}
