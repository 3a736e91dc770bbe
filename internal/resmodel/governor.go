// Package resmodel holds the ingest admission governor: an AIMD
// controller that paces bulk loading against the interactive p99 it
// observes (Governor). The ingest loader, the public façade and
// batchdb-server use it.
package resmodel

import (
	"sync"
	"time"
)

// GovernorConfig parameterizes an ingest admission-control governor.
type GovernorConfig struct {
	// BaselineP99 is the unloaded OLTP p99 the SLO is anchored to.
	BaselineP99 time.Duration
	// SLOMultiplier bounds tolerable degradation: the governor holds the
	// observed p99 at or below BaselineP99 * SLOMultiplier. Default 1.5.
	SLOMultiplier float64
	// MinRate and MaxRate clamp the admitted rate (units are the
	// caller's — chunks/sec for the ingest loader). Defaults 0.25 and
	// 256.
	MinRate float64
	MaxRate float64
	// IncreaseStep is the additive probe applied when the signal is
	// comfortably under the bound. Default (MaxRate-MinRate)/64.
	IncreaseStep float64
	// DecreaseFactor is the multiplicative cut applied on a bound
	// violation. Default 0.5.
	DecreaseFactor float64
	// Headroom defines the hold band: the rate only increases while
	// p99 < Headroom * bound, so the controller parks between probe and
	// cut instead of oscillating against the bound. Default 0.85.
	Headroom float64
}

func (c *GovernorConfig) fill() {
	if c.SLOMultiplier <= 1 {
		c.SLOMultiplier = 1.5
	}
	if c.MinRate <= 0 {
		c.MinRate = 0.25
	}
	if c.MaxRate <= c.MinRate {
		c.MaxRate = c.MinRate * 1024
	}
	if c.IncreaseStep <= 0 {
		c.IncreaseStep = (c.MaxRate - c.MinRate) / 64
	}
	if c.DecreaseFactor <= 0 || c.DecreaseFactor >= 1 {
		c.DecreaseFactor = 0.5
	}
	if c.Headroom <= 0 || c.Headroom > 1 {
		c.Headroom = 0.85
	}
}

// Governor is the feedback controller that throttles bulk-ingest
// admission to keep the interactive OLTP p99 within a configured
// multiple of its unloaded baseline — the admission-control half of the
// paper's performance-isolation promise, extended from physical
// placement to workload rate (Greenplum gates bulk loads with resource
// groups the same way).
//
// The control law is AIMD with a slow-start prologue, the same shape
// that makes TCP converge: while the windowed p99 violates the bound
// the rate is cut multiplicatively (fast, monotone backoff); while it
// sits comfortably below the bound the rate probes upward —
// multiplicatively (×2) until the first violation ever, additively
// after — and inside the hold band it parks. Observations with no
// signal (an idle OLTP side: zero samples in the window) count as
// "nothing to protect" and probe upward.
//
// Observe is the single mutating entry point, so the controller is
// deterministic given its observation sequence — the property its
// convergence test exploits.
type Governor struct {
	mu        sync.Mutex
	cfg       GovernorConfig
	rate      float64
	slowStart bool
	throttles uint64
	probes    uint64
}

// NewGovernor returns a governor starting at MinRate in slow-start.
func NewGovernor(cfg GovernorConfig) *Governor {
	cfg.fill()
	return &Governor{cfg: cfg, rate: cfg.MinRate, slowStart: true}
}

// Bound returns the latency ceiling: BaselineP99 * SLOMultiplier.
func (g *Governor) Bound() time.Duration {
	return time.Duration(float64(g.cfg.BaselineP99) * g.cfg.SLOMultiplier)
}

// Rate returns the currently admitted rate.
func (g *Governor) Rate() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rate
}

// Throttles returns how many observations triggered a rate cut.
func (g *Governor) Throttles() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.throttles
}

// Observe feeds one windowed p99 measurement (0 = no samples in the
// window) and returns the new admitted rate. Within one observation the
// response is monotone: a larger p99 never yields a larger rate.
func (g *Governor) Observe(p99 time.Duration) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	bound := float64(g.cfg.BaselineP99) * g.cfg.SLOMultiplier
	switch {
	case p99 > 0 && float64(p99) > bound:
		g.slowStart = false
		g.rate *= g.cfg.DecreaseFactor
		if g.rate < g.cfg.MinRate {
			g.rate = g.cfg.MinRate
		}
		g.throttles++
	case p99 <= 0 || float64(p99) < g.cfg.Headroom*bound:
		if g.slowStart {
			g.rate *= 2
		} else {
			g.rate += g.cfg.IncreaseStep
		}
		if g.rate > g.cfg.MaxRate {
			g.rate = g.cfg.MaxRate
		}
		g.probes++
		// Inside the hold band [Headroom*bound, bound]: park.
	}
	return g.rate
}
