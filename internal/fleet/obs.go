package fleet

import (
	"strconv"

	"batchdb/internal/obs"
)

// Stats exposes the router's counters. Invariants (asserted by the
// chaos soak test):
//
//	Queries   == Answered + Rejected + Shed
//	Attempts  == Σ member Routed
//	Ejections − Readmits == currently ejected members
//	Probes ≥ Readmits' probe successes
type Stats struct {
	// Queries counts routed query calls; exactly one of Answered,
	// Rejected, Shed is counted per call.
	Queries  obs.Counter
	Answered obs.Counter
	Rejected obs.Counter
	// Shed counts queries rejected by the MaxInFlight load gate.
	Shed obs.Counter
	// Attempts counts dispatches to members;
	// Failures the dispatches that returned a genuine error (cancels
	// excluded); Retries the re-picks after a failed attempt.
	Attempts obs.Counter
	Failures obs.Counter
	Retries  obs.Counter
	// StaleServed counts answers returned flagged Stale under
	// StaleServe; StaleRejected counts answers discarded for exceeding
	// the query's staleness bound.
	StaleServed   obs.Counter
	StaleRejected obs.Counter
	// Ejections, Probes, Readmits trace the breaker state machine.
	Ejections obs.Counter
	Probes    obs.Counter
	Readmits  obs.Counter
	// Latency is the end-to-end routed latency (including retries and
	// backoff); AttemptLatency the per-dispatch latency of successful
	// attempts.
	Latency        obs.Histogram
	AttemptLatency obs.Histogram
}

type memberStats struct {
	Routed   obs.Counter
	Failures obs.Counter
	// Ejected is 1 while the breaker holds the member ejected.
	Ejected obs.Gauge
}

// Register exposes the stats through reg under batchdb_fleet_*.
func (st *Stats) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.ObserveCounter("batchdb_fleet_queries_total",
		"Queries submitted to the fleet router.", &st.Queries, labels...)
	reg.ObserveCounter("batchdb_fleet_answered_total",
		"Queries answered (including stale-served).", &st.Answered, labels...)
	reg.ObserveCounter("batchdb_fleet_rejected_total",
		"Queries failed with a routing error.", &st.Rejected, labels...)
	reg.ObserveCounter("batchdb_fleet_shed_total",
		"Queries shed by the in-flight load gate.", &st.Shed, labels...)
	reg.ObserveCounter("batchdb_fleet_attempts_total",
		"Dispatches to fleet members.", &st.Attempts, labels...)
	reg.ObserveCounter("batchdb_fleet_attempt_failures_total",
		"Dispatches that returned a genuine error.", &st.Failures, labels...)
	reg.ObserveCounter("batchdb_fleet_retries_total",
		"Retry rounds after a failed attempt.", &st.Retries, labels...)
	reg.ObserveCounter("batchdb_fleet_stale_served_total",
		"Answers served beyond the staleness bound, flagged Stale.", &st.StaleServed, labels...)
	reg.ObserveCounter("batchdb_fleet_stale_rejected_total",
		"Answers discarded for exceeding the staleness bound.", &st.StaleRejected, labels...)
	reg.ObserveCounter("batchdb_fleet_ejections_total",
		"Breaker ejections.", &st.Ejections, labels...)
	reg.ObserveCounter("batchdb_fleet_probes_total",
		"Probe queries routed to ejected members.", &st.Probes, labels...)
	reg.ObserveCounter("batchdb_fleet_readmits_total",
		"Ejected members re-admitted after a successful probe.", &st.Readmits, labels...)
	reg.ObserveHistogram("batchdb_fleet_query_latency_ns",
		"End-to-end routed query latency (nanoseconds).", &st.Latency, labels...)
	reg.ObserveHistogram("batchdb_fleet_attempt_latency_ns",
		"Per-dispatch latency of successful attempts (nanoseconds).", &st.AttemptLatency, labels...)
}

// RegisterMetrics exposes the router's stats, in-flight gauge, and
// per-member counters through reg.
func (r *Router[Q, R]) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	r.stats.Register(reg, labels...)
	reg.GaugeFunc("batchdb_fleet_inflight",
		"Queries currently being routed.",
		func() float64 { return float64(r.inFlight.Load()) }, labels...)
	reg.GaugeFunc("batchdb_fleet_ejected",
		"Members currently held ejected by the breaker.",
		func() float64 { return float64(r.EjectedCount()) }, labels...)
	for _, m := range r.members {
		ml := append(append([]obs.Label(nil), labels...), obs.L("member", strconv.Itoa(m.idx)))
		reg.ObserveCounter("batchdb_fleet_member_routed_total",
			"Dispatches routed to this member.", &m.stats.Routed, ml...)
		reg.ObserveCounter("batchdb_fleet_member_failures_total",
			"Genuine dispatch failures on this member.", &m.stats.Failures, ml...)
		reg.ObserveGauge("batchdb_fleet_member_ejected",
			"1 while the breaker holds this member ejected.", &m.stats.Ejected, ml...)
	}
}
