// Package fleet is the OLAP replica fleet router (paper §8 elasticity;
// ROADMAP item 1). Clients submit queries to the router, never to a
// replica: the router owns health, placement, and failure handling for
// the fleet as a unit, the dispatch-tier shape of MPP systems like
// Greenplum.
//
// Robustness model:
//
//   - Per-query budgets. Every query carries a deadline and an optional
//     max-staleness bound (Budget). The deadline caps the whole routed
//     operation — queueing and retries included.
//
//   - Health-gated selection. A circuit breaker per member ejects a
//     replica after consecutive failures; ejected members receive no
//     traffic until a probe query (one at a time, exponential backoff)
//     succeeds and re-admits them. Selection additionally consults the
//     backend's live Health snapshot: members whose scheduler queue is
//     beyond MaxQueueDepth are skipped, and disconnected members whose
//     snapshot has aged past the eject bound (or the query's own
//     staleness bound) are set aside as stale-only candidates.
//
//   - Bounded retry. A failed or timed-out attempt is retried on a
//     *different* member after a doubling backoff, up to MaxAttempts,
//     within the deadline. When no member is routable at all, the
//     router waits — bounded by the deadline — for a probe to come due
//     or a member to reconnect, re-opening already-tried members, so a
//     momentary full-fleet outage shorter than the deadline degrades
//     latency, not availability.
//
//   - Staleness enforcement. Answers are stamped with snapshot
//     provenance (via the SnapshotMeta structural interface, falling
//     back to the member's Health). An answer beyond the query's bound
//     is not silently served: under StaleReject the router retries
//     elsewhere and ultimately returns ErrStalenessUnmet; under
//     StaleServe it returns the freshest answer it found, flagged
//     Meta.Stale.
//
//   - Load shedding. Beyond MaxInFlight concurrently routed queries the
//     router rejects immediately with ErrOverloaded instead of letting
//     the fleet's queues grow without bound.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Backend is one routable replica: a context-aware query entry point
// plus a live health snapshot. *node.Node and fakes in tests implement
// it.
type Backend[Q, R any] interface {
	QueryContext(ctx context.Context, q Q) (R, error)
	Health() Health
}

// Health is a point-in-time view of one replica's fitness to serve.
type Health struct {
	// Connected reports a live, bootstrapped feed from the primary.
	Connected bool
	// InstalledVID is the snapshot version visible to queries.
	InstalledVID uint64
	// StalenessNanos is the wall-clock age of that snapshot.
	StalenessNanos int64
	// VIDLag is primary watermark minus installed VID, in transactions.
	VIDLag int64
	// QueueDepth is the scheduler's admission-queue depth.
	QueueDepth int
}

// SnapshotMetaer is implemented by results that carry their own
// snapshot provenance (exec.Result does); the router prefers it over
// the member's Health, which may have moved since the answer was
// computed.
type SnapshotMetaer interface {
	SnapshotMeta() (vid uint64, stalenessNanos int64, degraded bool)
}

// StalePolicy selects what happens when no replica can answer within
// the query's staleness bound.
type StalePolicy int

const (
	// StaleDefault means StaleReject.
	StaleDefault StalePolicy = iota
	// StaleReject returns ErrStalenessUnmet.
	StaleReject
	// StaleServe returns the freshest available answer, flagged
	// Meta.Stale.
	StaleServe
)

// Budget is the per-query SLO: how long the caller will wait and how
// stale an answer it will accept. Zero fields inherit router defaults
// (MaxStaleness 0 = unbounded).
type Budget struct {
	Deadline     time.Duration
	MaxStaleness time.Duration
	StalePolicy  StalePolicy
}

// Config parameterizes a Router. Zero values select the documented
// defaults.
type Config struct {
	// Deadline is the default per-query deadline (2s).
	Deadline time.Duration
	// MaxAttempts bounds dispatches per query, each to a member not yet
	// tried (3).
	MaxAttempts int
	// RetryBackoff is the pause before the first retry, doubling per
	// retry (2ms).
	RetryBackoff time.Duration
	// FailureThreshold is the consecutive-failure count that ejects a
	// member (3).
	FailureThreshold int
	// ProbeBackoff is the delay before an ejected member's first probe,
	// doubling per failed probe up to MaxProbeBackoff (50ms, 2s).
	ProbeBackoff    time.Duration
	MaxProbeBackoff time.Duration
	// MaxQueueDepth skips members whose scheduler queue is deeper (8192).
	MaxQueueDepth int
	// EjectStaleness health-gates *disconnected* members whose snapshot
	// is older than this, independent of any per-query bound (5s). A
	// connected member's staleness is transient (it collapses on the
	// next sync), so it is judged per-answer instead.
	EjectStaleness time.Duration
	// MaxInFlight sheds queries beyond this many concurrently routed
	// (4096).
	MaxInFlight int
}

func (c Config) withDefaults() Config {
	if c.Deadline <= 0 {
		c.Deadline = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.ProbeBackoff <= 0 {
		c.ProbeBackoff = 50 * time.Millisecond
	}
	if c.MaxProbeBackoff <= 0 {
		c.MaxProbeBackoff = 2 * time.Second
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 8192
	}
	if c.EjectStaleness <= 0 {
		c.EjectStaleness = 5 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4096
	}
	return c
}

// maxPickWait caps the doubling pause between re-picks while a query
// waits, within its deadline, for any member to become routable.
const maxPickWait = 50 * time.Millisecond

// Typed routing errors. All router failures wrap one of these.
var (
	ErrNoBackends     = errors.New("fleet: no backends configured")
	ErrClosed         = errors.New("fleet: router closed")
	ErrOverloaded     = errors.New("fleet: overloaded, query shed")
	ErrNoHealthy      = errors.New("fleet: no healthy replica available")
	ErrStalenessUnmet = errors.New("fleet: no replica meets the staleness bound")
	ErrExhausted      = errors.New("fleet: retry attempts exhausted")
)

// Meta describes how one query was routed.
type Meta struct {
	// Backend is the index of the member that produced the answer (-1
	// on failure).
	Backend int
	// Attempts counts dispatches (1 = first try answered).
	Attempts int
	// Stale marks an answer served beyond the requested staleness bound
	// under StaleServe. SnapshotVID/StalenessNanos/Degraded carry the
	// answer's provenance either way.
	Stale          bool
	Degraded       bool
	SnapshotVID    uint64
	StalenessNanos int64
}

// memberState is the circuit-breaker state machine:
//
//	healthy --FailureThreshold consecutive failures--> ejected
//	ejected --probe success--> healthy (re-admitted)
//	ejected --probe failure--> ejected (backoff doubled)
//
// An ejected member takes no traffic except a single in-flight probe
// query once its backoff expires.
type memberState int

const (
	stateHealthy memberState = iota
	stateEjected
)

type member[Q, R any] struct {
	backend Backend[Q, R]
	idx     int

	mu           sync.Mutex
	state        memberState
	consecFails  int
	probing      bool
	probeStarted time.Time
	probeBackoff time.Duration
	nextProbe    time.Time

	stats memberStats
}

func (m *member[Q, R]) ejectedNow() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state == stateEjected
}

// tryBeginProbe claims the member's probe slot when it is due: ejected,
// backoff expired, and no probe in flight. A probe whose caller
// vanished (deadline) is considered expired after expiry and may be
// reclaimed.
func (m *member[Q, R]) tryBeginProbe(now time.Time, expiry time.Duration) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != stateEjected {
		return false
	}
	if m.probing && now.Sub(m.probeStarted) <= expiry {
		return false
	}
	if !m.probing && now.Before(m.nextProbe) {
		return false
	}
	m.probing = true
	m.probeStarted = now
	return true
}

func (m *member[Q, R]) recordFailure(cfg *Config, st *Stats) {
	m.stats.Failures.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.consecFails++
	switch m.state {
	case stateHealthy:
		if m.consecFails >= cfg.FailureThreshold {
			m.state = stateEjected
			m.probing = false
			m.probeBackoff = cfg.ProbeBackoff
			m.nextProbe = time.Now().Add(m.probeBackoff)
			m.stats.Ejected.Set(1)
			st.Ejections.Inc()
		}
	case stateEjected:
		if m.probing {
			m.probing = false
			m.probeBackoff *= 2
			if m.probeBackoff > cfg.MaxProbeBackoff {
				m.probeBackoff = cfg.MaxProbeBackoff
			}
		}
		m.nextProbe = time.Now().Add(m.probeBackoff)
	}
}

func (m *member[Q, R]) recordSuccess(st *Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == stateEjected {
		m.state = stateHealthy
		m.stats.Ejected.Set(0)
		st.Readmits.Inc()
	}
	m.probing = false
	m.consecFails = 0
}

// Router fans queries across a fleet of replica backends.
type Router[Q, R any] struct {
	cfg     Config
	members []*member[Q, R]

	stats    Stats
	inFlight atomic.Int64
	rr       atomic.Uint64
	closed   atomic.Bool
}

// NewRouter creates a router over backends. The backends' lifecycles
// remain the caller's: Close stops routing but does not close them.
func NewRouter[Q, R any](backends []Backend[Q, R], cfg Config) (*Router[Q, R], error) {
	if len(backends) == 0 {
		return nil, ErrNoBackends
	}
	r := &Router[Q, R]{cfg: cfg.withDefaults()}
	for i, b := range backends {
		r.members = append(r.members, &member[Q, R]{backend: b, idx: i})
	}
	return r, nil
}

// Stats returns the router's counters.
func (r *Router[Q, R]) Stats() *Stats { return &r.stats }

// EjectedCount returns how many members the breaker currently holds
// ejected. Invariant: Ejections − Readmits == EjectedCount.
func (r *Router[Q, R]) EjectedCount() int {
	n := 0
	for _, m := range r.members {
		if m.ejectedNow() {
			n++
		}
	}
	return n
}

// MemberHealth returns member i's live health snapshot.
func (r *Router[Q, R]) MemberHealth(i int) Health { return r.members[i].backend.Health() }

// Close stops routing: subsequent queries return ErrClosed. In-flight
// queries finish. Idempotent.
func (r *Router[Q, R]) Close() { r.closed.Store(true) }

type pickKind int

const (
	pickHealthy pickKind = iota
	pickProbe
	pickStale
)

// pick selects the next member to try: a due probe first (so ejected
// members regain traffic even while the rest of the fleet is healthy),
// else the least-loaded healthy member (round-robin tiebreak), else —
// under StaleServe only — the freshest stale-only candidate. staleOnly
// reports that candidates existed but all exceeded a staleness gate.
func (r *Router[Q, R]) pick(tried map[int]bool, b Budget, policy StalePolicy) (idx int, kind pickKind, staleOnly bool) {
	n := len(r.members)
	start := int(r.rr.Add(1)) % n
	now := time.Now()
	best, bestDepth := -1, 0
	probeIdx := -1
	staleIdx, staleBest := -1, int64(0)
	sawStale := false
	for o := 0; o < n; o++ {
		i := (start + o) % n
		if tried[i] {
			continue
		}
		m := r.members[i]
		if m.ejectedNow() {
			if probeIdx < 0 && m.tryBeginProbe(now, 2*r.cfg.Deadline) {
				probeIdx = i
			}
			continue
		}
		h := m.backend.Health()
		if !h.Connected {
			over := h.StalenessNanos > int64(r.cfg.EjectStaleness) ||
				(b.MaxStaleness > 0 && h.StalenessNanos > int64(b.MaxStaleness))
			if over {
				sawStale = true
				if staleIdx < 0 || h.StalenessNanos < staleBest {
					staleIdx, staleBest = i, h.StalenessNanos
				}
				continue
			}
		}
		if h.QueueDepth > r.cfg.MaxQueueDepth {
			continue
		}
		if best < 0 || h.QueueDepth < bestDepth {
			best, bestDepth = i, h.QueueDepth
		}
	}
	if probeIdx >= 0 {
		return probeIdx, pickProbe, false
	}
	if best >= 0 {
		return best, pickHealthy, false
	}
	if policy == StaleServe && staleIdx >= 0 {
		return staleIdx, pickStale, true
	}
	return -1, pickHealthy, sawStale
}

type outcome[R any] struct {
	res R
	err error
}

// dispatch runs q on member m. Success and genuine failure feed the
// breaker; context.Canceled does not — a canceled dispatch is an
// abandoned caller, not evidence about the member. A deadline expiry
// *is* evidence (the member was too slow) and counts.
func (r *Router[Q, R]) dispatch(ctx context.Context, m *member[Q, R], q Q, ch chan<- outcome[R]) {
	t0 := time.Now()
	res, err := m.backend.QueryContext(ctx, q)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			m.recordFailure(&r.cfg, &r.stats)
			r.stats.Failures.Inc()
		}
	} else {
		m.recordSuccess(&r.stats)
		r.stats.AttemptLatency.RecordSince(t0)
	}
	ch <- outcome[R]{res: res, err: err}
}

// attempt dispatches q to member idx and waits for its answer or for
// the deadline. A dispatch outlived by its deadline is abandoned (the
// outcome channel is buffered).
func (r *Router[Q, R]) attempt(ctx context.Context, q Q, idx int) (R, error) {
	ch := make(chan outcome[R], 1)
	m := r.members[idx]
	m.stats.Routed.Inc()
	r.stats.Attempts.Inc()
	go r.dispatch(ctx, m, q, ch)
	select {
	case out := <-ch:
		return out.res, out.err
	case <-ctx.Done():
		var zero R
		return zero, ctx.Err()
	}
}

// sleepCtx pauses for d or until ctx expires; reports whether the full
// pause elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// provenanceOf extracts an answer's snapshot provenance, preferring the
// result's own stamp over the member's (possibly newer) health.
func provenanceOf[R any](res R, h Health) (vid uint64, ns int64, degraded bool) {
	if sm, ok := any(res).(SnapshotMetaer); ok {
		return sm.SnapshotMeta()
	}
	return h.InstalledVID, h.StalenessNanos, !h.Connected
}

type staleBest[R any] struct {
	res  R
	meta Meta
}

// Query routes one query through the fleet under budget b and reports
// how it was routed. Exactly one of three outcomes is counted per call:
// Answered (success, including stale-served), Shed (load rejection), or
// Rejected (any other error).
func (r *Router[Q, R]) Query(ctx context.Context, q Q, b Budget) (R, Meta, error) {
	var zero R
	meta := Meta{Backend: -1}
	r.stats.Queries.Inc()
	if r.closed.Load() {
		r.stats.Rejected.Inc()
		return zero, meta, ErrClosed
	}
	if cur := r.inFlight.Add(1); cur > int64(r.cfg.MaxInFlight) {
		r.inFlight.Add(-1)
		r.stats.Shed.Inc()
		return zero, meta, fmt.Errorf("fleet: %d queries in flight: %w", cur-1, ErrOverloaded)
	}
	defer r.inFlight.Add(-1)

	t0 := time.Now()
	res, m, err := r.route(ctx, q, b, &meta)
	r.stats.Latency.RecordSince(t0)
	if err != nil {
		r.stats.Rejected.Inc()
		return zero, meta, err
	}
	r.stats.Answered.Inc()
	return res, m, nil
}

func (r *Router[Q, R]) route(ctx context.Context, q Q, b Budget, meta *Meta) (R, Meta, error) {
	var zero R
	deadline := b.Deadline
	if deadline <= 0 {
		deadline = r.cfg.Deadline
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	policy := b.StalePolicy
	if policy == StaleDefault {
		policy = StaleReject
	}

	tried := make(map[int]bool, len(r.members))
	var best *staleBest[R]
	var lastErr error
	sawStaleOnly := false
	backoff := r.cfg.RetryBackoff
	waitPause := r.cfg.RetryBackoff
	for try := 0; try < r.cfg.MaxAttempts; try++ {
		if try > 0 {
			r.stats.Retries.Inc()
			if !sleepCtx(ctx, backoff) {
				lastErr = ctx.Err()
				break
			}
			backoff *= 2
		}
		var idx int
		var kind pickKind
		for {
			var staleOnly bool
			idx, kind, staleOnly = r.pick(tried, b, policy)
			sawStaleOnly = sawStaleOnly || staleOnly || kind == pickStale
			if idx >= 0 {
				break
			}
			// Nothing is routable right now — every candidate is already
			// tried, ejected with no probe due, or gated. The deadline,
			// not one unlucky pick, is the query's budget: re-open tried
			// members (they may have recovered or resynced) and wait for
			// a probe to come due or a member to reconnect. A fleet that
			// goes fully dark for a moment then answers within the
			// deadline is a success, not a rejection.
			if len(tried) > 0 {
				clear(tried)
			}
			if !sleepCtx(ctx, waitPause) {
				break
			}
			if waitPause *= 2; waitPause > maxPickWait {
				waitPause = maxPickWait
			}
		}
		if idx < 0 {
			break // deadline expired while waiting for a routable member
		}
		tried[idx] = true
		if kind == pickProbe {
			r.stats.Probes.Inc()
		}
		meta.Attempts++
		res, err := r.attempt(ctx, q, idx)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		meta.Backend = idx
		vid, ns, degraded := provenanceOf(res, r.members[idx].backend.Health())
		meta.SnapshotVID, meta.StalenessNanos, meta.Degraded = vid, ns, degraded
		if b.MaxStaleness > 0 && ns > int64(b.MaxStaleness) {
			sawStaleOnly = true
			r.stats.StaleRejected.Inc()
			if best == nil || ns < best.meta.StalenessNanos {
				best = &staleBest[R]{res: res, meta: *meta}
			}
			lastErr = fmt.Errorf("fleet: replica %d staleness %v exceeds bound %v: %w",
				idx, time.Duration(ns), b.MaxStaleness, ErrStalenessUnmet)
			continue
		}
		return res, *meta, nil
	}

	if best != nil && policy == StaleServe {
		m := best.meta
		m.Stale = true
		r.stats.StaleServed.Inc()
		return best.res, m, nil
	}
	switch {
	case lastErr == nil && sawStaleOnly:
		lastErr = ErrStalenessUnmet
	case lastErr == nil:
		lastErr = ErrNoHealthy
	}
	if meta.Attempts >= r.cfg.MaxAttempts {
		return zero, *meta, fmt.Errorf("%w (%d attempts): %w", ErrExhausted, meta.Attempts, lastErr)
	}
	return zero, *meta, lastErr
}
