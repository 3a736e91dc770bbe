package obs

import (
	"sync"
	"time"
)

// Freshness tracks how far the OLAP replica's installed snapshot
// trails the OLTP primary — the defining HTAP quantity (snapshot age /
// freshness lag). It measures two signals:
//
//   - VID lag: primary commit watermark − installed snapshot VID, in
//     transactions. Sampled both when a new watermark is observed
//     (before the apply window, so a post-outage backlog is visible)
//     and when a snapshot installs.
//
//   - Wall-clock staleness: how old the visible data is. The tracker
//     keeps a monotone ring of (vid, first-seen time) watermark
//     observations. A snapshot at VID I is missing every commit past
//     I, so its staleness is now − t(first observation with vid > I);
//     when no newer watermark has been seen, the snapshot is caught up
//     as of the last *confirmed* sync, and staleness is measured from
//     there. Degraded syncs (the Supervisor falling back to the
//     replica's own covered VID while the link is down) do not
//     confirm, so staleness keeps rising through an outage and
//     collapses after reconnect/resync.
//
// ObserveWatermark and ObserveInstall are called from the OLAP
// scheduler loop; the exported gauges are evaluated live at scrape
// time. All methods are safe for concurrent use.
type Freshness struct {
	// Now is the clock, swappable in tests. Defaults to time.Now.
	Now func() time.Time

	mu            sync.Mutex
	ring          []watermarkObs
	lastVID       uint64
	installed     uint64
	lastConfirmed time.Time
	everConfirmed bool

	// Exported instruments (registered as views by Register).
	installedVID  Gauge
	watermarkVID  Gauge
	lagHigh       Gauge
	installs      Counter
	stalenessHist Histogram
}

type watermarkObs struct {
	vid uint64
	t   time.Time
}

// maxRing bounds the observation ring; past it every other entry is
// dropped, coarsening staleness resolution instead of growing memory.
const maxRing = 4096

// NewFreshness creates a tracker.
func NewFreshness() *Freshness {
	return &Freshness{Now: time.Now}
}

// ObserveWatermark records that the primary's commit watermark is v.
// confirmed reports that the value came from a live sync with the
// primary (false when a degraded supervisor is answering with the
// replica's own covered VID). Call before applying the batch so the
// lag high-watermark captures the pre-apply backlog.
func (f *Freshness) ObserveWatermark(v uint64, confirmed bool) {
	now := f.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if v > f.lastVID {
		f.lastVID = v
		f.ring = append(f.ring, watermarkObs{vid: v, t: now})
		if len(f.ring) > maxRing {
			kept := f.ring[:0]
			for i := 0; i < len(f.ring); i += 2 {
				kept = append(kept, f.ring[i])
			}
			f.ring = kept
		}
	}
	if confirmed {
		f.lastConfirmed = now
		f.everConfirmed = true
	}
	f.watermarkVID.Set(int64(f.lastVID))
	if lag := int64(f.lastVID) - int64(f.installed); lag > f.lagHigh.Load() {
		f.lagHigh.Set(lag)
	}
}

// ObserveInstall records that a snapshot at VID v became visible to
// OLAP queries, sampling its staleness into the histogram and pruning
// observations the new snapshot covers.
func (f *Freshness) ObserveInstall(v uint64) {
	now := f.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if v > f.installed {
		f.installed = v
	}
	if v > f.lastVID {
		// Install ahead of any observed watermark (e.g. a resync reload):
		// the watermark is at least v.
		f.lastVID = v
	}
	// Entries at or below the installed VID are covered; only newer
	// watermarks bound this snapshot's staleness.
	i := 0
	for i < len(f.ring) && f.ring[i].vid <= f.installed {
		i++
	}
	f.ring = f.ring[i:]
	f.installedVID.Set(int64(f.installed))
	f.watermarkVID.Set(int64(f.lastVID))
	f.installs.Inc()
	f.stalenessHist.Record(f.stalenessLocked(now))
}

// stalenessLocked computes the installed snapshot's age at time now.
func (f *Freshness) stalenessLocked(now time.Time) int64 {
	if len(f.ring) > 0 {
		// Oldest watermark past the snapshot: commits it is missing were
		// already visible then.
		return int64(now.Sub(f.ring[0].t))
	}
	if !f.everConfirmed {
		return 0 // nothing known yet
	}
	// Caught up as of the last confirmed sync.
	d := int64(now.Sub(f.lastConfirmed))
	if d < 0 {
		d = 0
	}
	return d
}

// StalenessNanos returns the installed snapshot's current age.
func (f *Freshness) StalenessNanos() int64 {
	now := f.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stalenessLocked(now)
}

// VIDLag returns watermark − installed in transactions.
func (f *Freshness) VIDLag() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(f.lastVID) - int64(f.installed)
}

// InstalledVID returns the last installed snapshot VID.
func (f *Freshness) InstalledVID() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.installed
}

// Register exposes the tracker through reg under the batchdb_freshness
// namespace. The lag and staleness gauges are evaluated live at scrape
// time.
func (f *Freshness) Register(reg *Registry, labels ...Label) {
	reg.GaugeFunc("batchdb_freshness_vid_lag",
		"Primary commit watermark minus installed OLAP snapshot VID (transactions).",
		func() float64 { return float64(f.VIDLag()) }, labels...)
	reg.ObserveGauge("batchdb_freshness_vid_lag_high",
		"Highest freshness VID lag observed (backlog peak).", &f.lagHigh, labels...)
	reg.ObserveGauge("batchdb_freshness_installed_vid",
		"VID of the snapshot currently visible to OLAP queries.", &f.installedVID, labels...)
	reg.ObserveGauge("batchdb_freshness_watermark_vid",
		"Latest primary commit watermark observed by the OLAP scheduler.", &f.watermarkVID, labels...)
	reg.GaugeFunc("batchdb_freshness_staleness_ns",
		"Current wall-clock age of the installed OLAP snapshot (nanoseconds).",
		func() float64 { return float64(f.StalenessNanos()) }, labels...)
	reg.ObserveHistogram("batchdb_freshness_staleness_sample_ns",
		"Snapshot staleness sampled at each batch install (nanoseconds).",
		&f.stalenessHist, labels...)
	reg.ObserveCounter("batchdb_freshness_installs_total",
		"OLAP snapshot installs (apply windows that advanced the snapshot).",
		&f.installs, labels...)
}
