package olap

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"batchdb/internal/obs"
)

// Primary is the OLAP dispatcher's view of the transactional component:
// asking it for the latest committed snapshot version forces an
// immediate push of all extracted updates (paper Fig. 1 "Fetch latest
// snapshot version").
type Primary interface {
	SyncUpdates() uint64
}

// StaticPrimary is a Primary for replicas with no live OLTP feed (e.g.
// loaded once for analytics benchmarks); it always reports the given
// VID.
type StaticPrimary uint64

// SyncUpdates returns the fixed VID.
func (s StaticPrimary) SyncUpdates() uint64 { return uint64(s) }

// RunBatchFunc executes one batch of queries against the replica as a
// single read-only transaction and returns one result per query, in
// order. snap is the floor VID the batch is guaranteed to see: every
// update committed before the batch formed is applied at or below it.
// The scheduler runs no apply round while the function runs, but a
// direct caller of Replica.ApplyPending may, so implementations must read
// under a pin (Replica.PinSnapshot), which holds that round off until
// they unpin.
type RunBatchFunc[Q, R any] func(queries []Q, snap uint64) []R

// SchedulerStats exposes the OLAP dispatcher's counters.
type SchedulerStats struct {
	Queries        obs.Counter
	Batches        obs.Counter
	AppliedEntries obs.Counter
	// Latency measures queue + execution time per query (what a client
	// observes, paper Fig. 7b).
	Latency obs.Histogram
	// BatchExec measures pure batch execution time.
	BatchExec obs.Histogram
	// ApplyTime accumulates time spent applying updates per round (a
	// round's clock includes its sync and any wait for a batch to unpin):
	// one sample for every round that applied entries, installed a reload
	// or did maintenance. ApplyRoundsEmpty counts the rounds that found
	// none of the three — the freshness barrier of a quiet primary runs
	// one — which would otherwise dilute the histogram's mean.
	ApplyTime        obs.Histogram
	ApplyRoundsEmpty obs.Counter
	// ApplyRounds counts every round by what started it (roundCause).
	ApplyRounds [numRoundCauses]obs.Counter
	// SnapWait measures the dispatcher's freshness barrier: how long a
	// formed batch waits for an apply round covering its formation time
	// before it pins a snapshot and executes — the only apply-induced
	// stall a batch ever sees.
	SnapWait obs.Histogram
	// ExecBuildPrepare, ExecScan and ExecMerge split each batch's
	// execution into its phases — resolving each probed table to its
	// PK-indexed source, the morsel-driven driver scans, and the per-worker
	// partial-aggregate merge. Recorded by the exec engine when it is
	// attached via Engine.AttachStats (one sample per batch each).
	ExecBuildPrepare obs.Histogram
	ExecScan         obs.Histogram
	ExecMerge        obs.Histogram
	// ExecBlocksScanned and ExecBlocksSkipped count the morsel
	// dispatcher's zone-map verdicts: morsels whose block synopses could
	// satisfy at least one query in the batch, vs morsels every
	// interested query's pushed-down predicates disproved (skipped
	// without touching a tuple). ExecTuplesPruned counts the live tuples
	// of the skipped morsels.
	ExecBlocksScanned obs.Counter
	ExecBlocksSkipped obs.Counter
	ExecTuplesPruned  obs.Counter
	// ExecProbeLookups counts join-probe lookups: one per root step per
	// driver tuple some query holding the step still wants, whatever the
	// number of queries; and, when a link array is made (not when it is
	// found cached), one per live row of the linked step's parent table.
	// ExecProbePredEvals counts the probe-filter evaluations: one per
	// live row of the probed table for a filter the executor turned into
	// a bitmap, one per hit otherwise (a table larger than the driver).
	// Both are pure functions of data, batch, plan and what the engine
	// has cached — work counters, comparable exactly across runs.
	ExecProbeLookups   obs.Counter
	ExecProbePredEvals obs.Counter
	Busy               obs.BusyTracker
}

// Scheduler is the OLAP dispatcher (paper Fig. 1 right, §5 "Query
// scheduling"): incoming queries queue up; the scheduler repeatedly
// (1) collects all queued queries into one batch, (2) fetches the latest
// committed snapshot version from the primary, (3) applies the queued
// updates up to that version, and (4) executes the whole batch as one
// read-only transaction on that single snapshot.
//
// All four run on one goroutine, so an apply round and a batch never
// overlap. Steps (2)-(3) are the batch's freshness-barrier round, run
// inline after the batch forms (SnapWait): it keeps the paper's guarantee
// that a batch observes everything committed before it formed, and it is
// the one round a batch costs the primary a sync for. Between batches,
// while the loop waits for a query or for the beat, every update push
// from the primary kicks a push round that applies what has already
// arrived, so the next barrier round finds less to do.
//
// While queries arrive concurrently, batches form on a heartbeat
// (batchHeartbeat) rather than back to back; see loop.
type Scheduler[Q, R any] struct {
	replica *Replica
	primary Primary
	run     RunBatchFunc[Q, R]

	queue     chan schedReq[Q, R]
	closing   chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
	started   atomic.Bool
	lifeMu    sync.Mutex // arbitrates Start vs Close: exactly one party closes `closed`
	maxBatch  int

	stats SchedulerStats
	// fresh tracks snapshot-VID lag and wall-clock staleness across the
	// loop's sync/apply rounds (paper §3.2 bounded staleness; the HTAP
	// freshness-lag metric).
	fresh *obs.Freshness

	// applyKick carries push kicks to the loop (capacity 1: kicks
	// coalesce).
	applyKick chan struct{}
	// lastSeen is the highest watermark a round has targeted; only the
	// loop touches it.
	lastSeen uint64
}

// roundCause is what started an apply round: a formed batch waiting on
// the freshness barrier, or a push from the primary.
type roundCause int

const (
	causeBarrier roundCause = iota
	causePush
	numRoundCauses
)

func (c roundCause) String() string { return [...]string{"barrier", "push"}[c] }

type schedReq[Q, R any] struct {
	q       Q
	reply   chan R
	arrived time.Time
}

// NewScheduler creates an OLAP dispatcher over replica, syncing with
// primary and executing batches with run.
func NewScheduler[Q, R any](replica *Replica, primary Primary, run RunBatchFunc[Q, R]) *Scheduler[Q, R] {
	return &Scheduler[Q, R]{
		replica:   replica,
		primary:   primary,
		run:       run,
		queue:     make(chan schedReq[Q, R], 16384),
		closing:   make(chan struct{}),
		closed:    make(chan struct{}),
		applyKick: make(chan struct{}, 1),
		maxBatch:  8192,
		fresh:     obs.NewFreshness(),
	}
}

// Stats returns the scheduler's counters.
func (s *Scheduler[Q, R]) Stats() *SchedulerStats { return &s.stats }

// Freshness returns the scheduler's snapshot-freshness tracker.
func (s *Scheduler[Q, R]) Freshness() *obs.Freshness { return s.fresh }

// Start launches the dispatcher's loop. Extra calls are no-ops, and so
// is Start after Close: once closed, no loop may run (it would
// race the already-closed `closed` channel queries unblock on).
func (s *Scheduler[Q, R]) Start() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	select {
	case <-s.closing:
		return
	default:
	}
	if s.started.Swap(true) {
		return
	}
	// Every push from the primary kicks an apply round as soon as the
	// loop is between batches.
	s.replica.SetOnPush(s.kickApply)
	go s.loop()
}

// kickApply asks the loop for a push round; a kick that finds one
// pending merges with it.
func (s *Scheduler[Q, R]) kickApply() {
	select {
	case s.applyKick <- struct{}{}:
	default:
	}
}

// Close stops the dispatcher after the current batch. It is idempotent:
// extra calls wait for the same shutdown instead of panicking. Closing
// a scheduler that was never started does not block (there is no loop
// to wait for) — Close closes `closed` itself so queries that slipped
// into the queue still unblock with ErrSchedulerClosed either way.
func (s *Scheduler[Q, R]) Close() {
	s.lifeMu.Lock()
	s.closeOnce.Do(func() {
		close(s.closing)
		if !s.started.Load() {
			close(s.closed) // no loop will ever run to close it
		}
	})
	s.lifeMu.Unlock()
	<-s.closed
}

// batchHeartbeat is the least time between the formation of two batches
// while queries arrive concurrently. Back to back, a closed loop of
// sessions keeps the executor saturated, and a saturated executor's
// throughput and latency follow every swing of the host: since probes
// became single array accesses, what is left of a batch is memory
// latency, and on a shared host that wanders by a fifth from one minute
// to the next. On a heartbeat the cycle is set by a clock instead of by
// the last batch's speed, and the same swings move the answer rate by
// less; each beat also gathers every session that asked since the last
// one into one batch, so the primary is forced to flush, and the replica
// to run an apply round, once a beat. The price is peak throughput where
// a batch ends early (the executor idles for the rest of the beat) and up
// to one beat of waiting for a query that arrives just after one.
//
// 20 ms is the shortest beat whose query cells kept a quartile spread of
// at most 0.02 of their median across seeds (EXPERIMENTS.md "A 20 ms
// beat": at 60 ms a read-only replica's executor idled three quarters of
// every cycle; at 10 ms the spread reached 0.07–0.20). At 20 ms a replica
// beside a busy primary runs effectively back to back — its barrier round
// and batch fill the beat — and only a read-only replica still idles, for
// about half of it. The beat is an absolute time on purpose: derived from
// measured batch times it would follow the host's swings it is there to
// absorb.
//
// A lone session that asks, waits and asks again never waits for the
// beat: pacing starts with the first batch that carries two queries and
// stops after heartbeatQuiet single-query batches in a row.
const (
	batchHeartbeat = 20 * time.Millisecond
	heartbeatQuiet = 2
)

// ErrSchedulerClosed reports a query submitted after (or racing) Close.
var ErrSchedulerClosed = errors.New("olap: scheduler closed")

// QueueDepth returns the number of queries waiting to join a batch —
// the dispatcher's admission queue depth, one of the health signals a
// fleet router gates replica selection on.
func (s *Scheduler[Q, R]) QueueDepth() int { return len(s.queue) }

// Query submits one analytical query and waits for its result.
func (s *Scheduler[Q, R]) Query(q Q) (R, error) {
	return s.QueryContext(context.Background(), q)
}

// QueryContext submits one analytical query and waits for its result,
// honoring ctx during both the enqueue and the wait. It returns
// ctx.Err() when the context expires first and ErrSchedulerClosed when
// Close wins the race — never blocking past either signal. A request
// abandoned by its caller is still executed with its batch; the reply
// is buffered, so the dispatcher never blocks on a departed caller.
func (s *Scheduler[Q, R]) QueryContext(ctx context.Context, q Q) (R, error) {
	var zero R
	reply := make(chan R, 1)
	select {
	case s.queue <- schedReq[Q, R]{q: q, reply: reply, arrived: time.Now()}:
	case <-s.closing:
		return zero, ErrSchedulerClosed
	case <-ctx.Done():
		return zero, ctx.Err()
	}
	select {
	case r := <-reply:
		return r, nil
	case <-s.closed:
		// Both channels may be ready (the loop answered the batch and
		// shut down); prefer the computed answer over reporting a close
		// — dropping it here would lose a result the caller paid for.
		select {
		case r := <-reply:
			return r, nil
		default:
		}
		return zero, ErrSchedulerClosed
	case <-ctx.Done():
		select {
		case r := <-reply:
			return r, nil
		default:
		}
		return zero, ctx.Err()
	}
}

// round runs one apply round: sync the primary's watermark (a barrier
// round) or take what pushes have already delivered (a push round), then
// apply the propagated updates. A push round that would find nothing is
// not started: every forced sync's own push kicks one after the barrier
// round that forced it has taken the push.
func (s *Scheduler[Q, R]) round(cause roundCause) {
	if cause == causePush && s.replica.caughtUp(s.lastSeen) {
		return
	}
	s.stats.ApplyRounds[cause].Inc()
	t0 := time.Now()
	var target uint64
	confirmed := true
	if cause == causeBarrier {
		target = s.primary.SyncUpdates()
		if fc, ok := s.primary.(FreshnessConfirmer); ok {
			confirmed = fc.FreshSync()
		}
	} else {
		// Push-kicked round: apply what has already arrived. Forcing a
		// primary flush here would re-kick the loop forever (sync → flush
		// → push → kick) and shred the primary's group-commit batching.
		// The covered watermark counts as live primary contact only when
		// it advanced — a push just carried it; a coalesced stale kick
		// proves nothing.
		target = s.replica.Covered()
		confirmed = target > s.lastSeen
	}
	if target > s.lastSeen {
		s.lastSeen = target
	}
	// Observed before the apply so the lag high-watermark captures the
	// pre-apply backlog (e.g. the spike right after a reconnect).
	s.fresh.ObserveWatermark(target, confirmed)
	st, err := s.replica.ApplyPending(target)
	if st.Entries > 0 || st.Reloaded || st.Maintained {
		s.stats.ApplyTime.RecordSince(t0)
	} else {
		s.stats.ApplyRoundsEmpty.Inc()
	}
	s.stats.AppliedEntries.Add(uint64(st.Entries))
	if err != nil {
		// Replica divergence is unrecoverable; surface loudly.
		panic(err)
	}
	applied := s.replica.AppliedVID()
	if applied > target {
		// A staged resync snapshot can carry the apply past the synced
		// watermark (it may have been staged after the sync answered with
		// a fallback). Its VID is primary knowledge too — record it first
		// so the lag high-watermark sees the backlog this install is about
		// to cover.
		s.fresh.ObserveWatermark(applied, false)
	}
	s.fresh.ObserveInstall(applied)
}

// await serves push kicks until ch delivers a value, and reports false
// if the scheduler closes first.
func await[T, Q, R any](s *Scheduler[Q, R], ch <-chan T) (v T, ok bool) {
	for {
		select {
		case v = <-ch:
			return v, true
		case <-s.applyKick:
			s.round(causePush)
		case <-s.closing:
			return v, false
		}
	}
}

// loop is the dispatcher: it forms batches — on the heartbeat while
// queries arrive concurrently — runs each one's barrier round, and
// executes it against the replica as that round left it. Push rounds run
// while it waits.
func (s *Scheduler[Q, R]) loop() {
	defer close(s.closed)
	reqs := make([]schedReq[Q, R], 0, 256)
	// formed is when the previous batch formed; quiet counts the
	// single-query batches since the last one that carried more, and
	// starts at the threshold so that a scheduler nobody has used
	// concurrently does not pace.
	var formed time.Time
	quiet := heartbeatQuiet
	beat := time.NewTimer(0)
	<-beat.C
	defer beat.Stop()
	for {
		// Wait for at least one query (or shutdown).
		r, ok := await(s, s.queue)
		if !ok {
			return
		}
		reqs = append(reqs[:0], r)
		// The first query of the next batch is here. Under concurrent
		// load give the sessions the last batch answered until the beat
		// to ask again, so that they share this batch.
		if quiet < heartbeatQuiet {
			if wait := batchHeartbeat - time.Since(formed); wait > 0 {
				beat.Reset(wait)
				if _, ok := await(s, beat.C); !ok {
					return
				}
			}
		}
		formed = time.Now()
		// Batch all concurrently queued queries (paper: "batches all
		// concurrent OLAP queries in the system").
	drain:
		for len(reqs) < s.maxBatch {
			select {
			case r := <-s.queue:
				reqs = append(reqs, r)
			default:
				break drain
			}
		}

		if len(reqs) > 1 {
			quiet = 0
		} else if quiet < heartbeatQuiet {
			quiet++
		}

		// Freshness barrier: the batch has formed; run the apply round
		// covering everything committed before this instant. It applies
		// what committed since the last batch's barrier round and has not
		// already arrived with a push and been applied by a push round.
		t0 := time.Now()
		s.round(causeBarrier)
		s.stats.SnapWait.RecordSince(t0)
		snap := s.replica.AppliedVID()

		// Execute the whole batch as one read-only transaction on the
		// replica pinned at one VID (the run function pins it). Pushes
		// that arrive meanwhile wait in applyKick for the next wait.
		queries := make([]Q, len(reqs))
		for i := range reqs {
			queries[i] = reqs[i].q
		}
		t1 := time.Now()
		results := s.run(queries, snap)
		s.stats.BatchExec.RecordSince(t1)
		s.stats.Busy.Track(time.Since(t0))
		s.stats.Batches.Inc()
		for i := range reqs {
			s.stats.Queries.Inc()
			s.stats.Latency.RecordSince(reqs[i].arrived)
			reqs[i].reply <- results[i]
		}
	}
}
