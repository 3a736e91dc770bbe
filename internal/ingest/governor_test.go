package ingest

import (
	"math/rand"
	"testing"
	"time"
)

// plant is a simulated latency source: p99 stays at baseline up to a
// knee rate, then grows linearly. Deterministic, monotone in rate —
// the simplest model of "co-batched ingest chunks inflate every
// transaction's latency past some admission rate".
type plant struct {
	baseline time.Duration
	knee     float64
	beta     float64 // fractional latency growth per rate unit past knee
}

func (p plant) p99(rate float64) time.Duration {
	if rate <= p.knee {
		return p.baseline
	}
	return time.Duration(float64(p.baseline) * (1 + p.beta*(rate-p.knee)))
}

// TestGovernorConverges drives the controller against randomized plants,
// baselines and SLO multipliers and asserts the ISSUE's three
// controller properties: convergence into a bounded band around the
// crossing rate, no oscillation beyond that band, and cuts happening
// exactly on bound violations.
func TestGovernorConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		baseline := time.Duration(1+rng.Intn(50)) * time.Millisecond
		mult := 1.2 + rng.Float64()*1.8
		knee := 5 + rng.Float64()*45
		rStar := knee + 5 + rng.Float64()*95 // rate where p99 crosses the bound
		beta := (mult - 1) / (rStar - knee)
		pl := plant{baseline: baseline, knee: knee, beta: beta}

		cfg := GovernorConfig{
			BaselineP99:   baseline,
			SLOMultiplier: mult,
			MinRate:       0.5,
			MaxRate:       rStar * (1.5 + rng.Float64()*2.5),
		}
		g := NewGovernor(cfg)
		cfg.fill() // resolve defaults for the assertions below
		bound := float64(g.Bound())
		// Rate below which the plant sits under the headroom threshold
		// (the governor's probe region). headroom*mult > 1 for every
		// generated multiplier, so rHead is well-defined.
		rHead := knee + (headroom*mult-1)/beta

		const (
			ticks  = 300
			settle = 150
		)
		rate := g.Rate()
		var rates []float64
		for i := 0; i < ticks; i++ {
			obs := pl.p99(rate)
			prev := rate
			rate = g.Observe(obs)
			if rate < cfg.MinRate-1e-9 || rate > cfg.MaxRate+1e-9 {
				t.Fatalf("trial %d: rate %v outside [%v, %v]", trial, rate, cfg.MinRate, cfg.MaxRate)
			}
			if float64(obs) > bound {
				// Violation ⇒ monotone throttle response: the rate must
				// not grow, and must shrink unless already clamped.
				if rate > prev {
					t.Fatalf("trial %d tick %d: rate rose on a violation (%v -> %v)", trial, i, prev, rate)
				}
				if rate >= prev && prev > cfg.MinRate {
					t.Fatalf("trial %d tick %d: no cut on violation at rate %v", trial, i, prev)
				}
			} else if rate < prev {
				t.Fatalf("trial %d tick %d: rate cut without a violation (p99=%v bound=%v)", trial, i, obs, bound)
			}
			if i >= settle {
				rates = append(rates, rate)
			}
		}
		if g.Throttles() == 0 {
			// Legitimate only if slow start parked inside the hold band
			// before ever crossing: the plant is then held at the bound
			// with zero cuts, which is ideal convergence.
			final := rates[len(rates)-1]
			if final < rHead-1e-9 || float64(pl.p99(final)) > bound {
				t.Fatalf("trial %d: no throttle and parked badly at %v (rHead %v, rStar %v)", trial, final, rHead, rStar)
			}
		}
		// Post-settle band. Ceiling: an additive probe overshoots the
		// probe region by at most one step, and a slow-start park sits at
		// most one doubling past rHead but never past the crossing.
		// Floor: cuts only fire above the crossing rate, so a cut lands
		// no lower than decreaseFactor*rStar, and a park sits at rHead or
		// above.
		hi := rHead + (cfg.MaxRate-cfg.MinRate)/probeSteps
		park := 2 * rHead
		if park > rStar {
			park = rStar
		}
		if park > hi {
			hi = park
		}
		if hi > cfg.MaxRate {
			hi = cfg.MaxRate
		}
		lo := decreaseFactor * rStar
		if rHead < lo {
			lo = rHead
		}
		if lo < cfg.MinRate {
			lo = cfg.MinRate
		}
		for i, r := range rates {
			if r > hi+1e-9 {
				t.Fatalf("trial %d: settled rate %v above band ceiling %v (tick %d)", trial, r, hi, settle+i)
			}
			if r < lo-1e-9 {
				t.Fatalf("trial %d: settled rate %v below band floor %v (tick %d)", trial, r, lo, settle+i)
			}
		}
		// No oscillation beyond bound: a violation is cut back under the
		// crossing within at most two observations (decreaseFactor^2
		// times any reachable rate sits below rStar for every generated
		// plant), so three consecutive violating rates cannot happen.
		for i := 2; i < len(rates); i++ {
			if rates[i-2] > rStar && rates[i-1] > rStar && rates[i] > rStar {
				t.Fatalf("trial %d: three consecutive settled rates above the crossing (%v, %v, %v > %v)",
					trial, rates[i-2], rates[i-1], rates[i], rStar)
			}
		}
	}
}

// TestGovernorMonotoneStep pins single-step monotonicity from identical
// states: observing a larger p99 never yields a larger rate.
func TestGovernorMonotoneStep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		cfg := GovernorConfig{
			BaselineP99:   time.Duration(1+rng.Intn(40)) * time.Millisecond,
			SLOMultiplier: 1.1 + rng.Float64()*2,
		}
		startRate := 0.5 + rng.Float64()*200
		slow := rng.Intn(2) == 0
		mk := func() *Governor {
			g := NewGovernor(cfg)
			g.rate = startRate
			g.slowStart = slow
			return g
		}
		a := time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
		b := time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
		if a > b {
			a, b = b, a
		}
		ra := mk().Observe(a)
		rb := mk().Observe(b)
		if rb > ra {
			t.Fatalf("trial %d: p99 %v -> rate %v but larger p99 %v -> larger rate %v", trial, a, ra, b, rb)
		}
	}
}

// TestGovernorHoldBandAndIdle pins the two non-moving behaviours: inside
// the hold band the rate parks, and a signal-free window (no OLTP
// traffic) probes upward because there is nothing to protect.
func TestGovernorHoldBandAndIdle(t *testing.T) {
	cfg := GovernorConfig{BaselineP99: 10 * time.Millisecond, SLOMultiplier: 1.5}
	g := NewGovernor(cfg)
	g.slowStart = false
	g.rate = 42

	inBand := time.Duration(float64(g.Bound()) * 0.95) // above headroom, below bound
	if r := g.Observe(inBand); r != 42 {
		t.Fatalf("rate moved inside hold band: %v", r)
	}
	if r := g.Observe(0); r <= 42 {
		t.Fatalf("idle window did not probe upward: %v", r)
	}

	// Sustained violation walks the rate down to MinRate and no further.
	for i := 0; i < 100; i++ {
		g.Observe(time.Second)
	}
	cfg2 := cfg
	cfg2.fill()
	if r := g.Rate(); r != cfg2.MinRate {
		t.Fatalf("sustained violation settled at %v, want MinRate %v", r, cfg2.MinRate)
	}
	if g.Throttles() == 0 {
		t.Fatal("throttle counter never moved")
	}
}
