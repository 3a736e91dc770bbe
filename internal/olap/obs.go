package olap

import "batchdb/internal/obs"

// FreshnessConfirmer is optionally implemented by a Primary whose
// SyncUpdates can answer without reaching the primary (the degraded
// Supervisor falls back to the replica's own covered VID). FreshSync
// reports whether the most recent SyncUpdates result came from a live
// exchange; the scheduler feeds it to the freshness tracker so
// staleness keeps rising through an outage instead of being reset by
// fallback answers.
type FreshnessConfirmer interface {
	FreshSync() bool
}

// Register exposes the dispatcher's counters through reg as registry
// views.
func (st *SchedulerStats) Register(reg *obs.Registry, labels ...obs.Label) {
	with := func(extra ...obs.Label) []obs.Label {
		return append(append([]obs.Label(nil), labels...), extra...)
	}
	reg.ObserveCounter("batchdb_olap_queries_total",
		"Analytical queries executed.", &st.Queries, labels...)
	reg.ObserveCounter("batchdb_olap_batches_total",
		"Query batches executed (one snapshot each).", &st.Batches, labels...)
	reg.ObserveCounter("batchdb_olap_applied_entries_total",
		"Propagated update entries applied between batches.", &st.AppliedEntries, labels...)
	reg.ObserveHistogram("batchdb_olap_query_latency_ns",
		"Queue + execution time per analytical query (nanoseconds).", &st.Latency, labels...)
	reg.ObserveHistogram("batchdb_olap_batch_latency_ns",
		"Pure batch execution time (nanoseconds).", &st.BatchExec, labels...)
	reg.ObserveHistogram("batchdb_olap_apply_ns",
		"Duration of apply rounds that applied entries, reloaded or did maintenance (nanoseconds; sync and any wait for a batch to unpin included).", &st.ApplyTime, labels...)
	reg.ObserveCounter("batchdb_olap_apply_rounds_empty_total",
		"Apply rounds that found nothing to apply, reload or maintain (not in batchdb_olap_apply_ns).", &st.ApplyRoundsEmpty, labels...)
	for c := range st.ApplyRounds {
		reg.ObserveCounter("batchdb_olap_apply_rounds_total",
			"Apply rounds by what started them: a batch on the freshness barrier, or a push.",
			&st.ApplyRounds[c], with(obs.L("cause", roundCause(c).String()))...)
	}
	reg.ObserveHistogram("batchdb_olap_snapshot_wait_ns",
		"Dispatcher freshness-barrier wait per batch (nanoseconds).", &st.SnapWait, labels...)
	reg.ObserveHistogram("batchdb_olap_exec_phase_ns",
		"Batch execution split by phase.", &st.ExecBuildPrepare, with(obs.L("phase", "build"))...)
	reg.ObserveHistogram("batchdb_olap_exec_phase_ns",
		"Batch execution split by phase.", &st.ExecScan, with(obs.L("phase", "scan"))...)
	reg.ObserveHistogram("batchdb_olap_exec_phase_ns",
		"Batch execution split by phase.", &st.ExecMerge, with(obs.L("phase", "merge"))...)
	reg.ObserveCounter("batchdb_olap_blocks_scanned_total",
		"Morsels the zone-map dispatcher had to scan.", &st.ExecBlocksScanned, labels...)
	reg.ObserveCounter("batchdb_olap_blocks_skipped_total",
		"Morsels skipped by zone-map verdicts.", &st.ExecBlocksSkipped, labels...)
	reg.ObserveCounter("batchdb_olap_tuples_pruned_total",
		"Live tuples inside skipped morsels.", &st.ExecTuplesPruned, labels...)
	reg.ObserveCounter("batchdb_olap_exec_probe_lookups_total",
		"Join-probe lookups: per root step per driver tuple, per tail step per tuple per query, per parent row when a link array is made.", &st.ExecProbeLookups, labels...)
	reg.ObserveCounter("batchdb_olap_exec_probe_pred_evals_total",
		"Probe-filter evaluations (per row of the probed, PK-indexed table when bitmapped; else per hit).", &st.ExecProbePredEvals, labels...)
	reg.GaugeFunc("batchdb_olap_busy_seconds",
		"Cumulative dispatcher busy time (seconds).",
		func() float64 { return st.Busy.Busy().Seconds() }, labels...)
}

// PendingBatches returns the number of propagated update batches queued
// but not yet applied (the OLTP Update Queue depth of paper Fig. 1).
func (r *Replica) PendingBatches() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// RegisterMetrics exposes the replica's queue depth and VID watermarks
// through reg, evaluated live at scrape time.
func (r *Replica) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.GaugeFunc("batchdb_olap_pending_batches",
		"Propagated update batches queued awaiting application.",
		func() float64 { return float64(r.PendingBatches()) }, labels...)
	reg.GaugeFunc("batchdb_olap_covered_vid",
		"Highest VID for which all updates have been received.",
		func() float64 { return float64(r.Covered()) }, labels...)
	reg.GaugeFunc("batchdb_olap_applied_vid",
		"Snapshot VID the replica's stored data reflects.",
		func() float64 { return float64(r.AppliedVID()) }, labels...)
	reg.GaugeFunc("batchdb_olap_pinned_snapshots",
		"Outstanding snapshot pins (an apply round waits for 0).",
		func() float64 { return float64(r.PinnedSnapshots()) }, labels...)
}

// RegisterMetrics exposes the scheduler's counters, its replica's queue
// gauges, and its freshness tracker through reg — the one-call wiring
// for a dispatcher (the server labels each workload class).
func (s *Scheduler[Q, R]) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	s.stats.Register(reg, labels...)
	s.replica.RegisterMetrics(reg, labels...)
	s.fresh.Register(reg, labels...)
	reg.GaugeFunc("batchdb_olap_queue_depth",
		"Queries waiting in the dispatcher's admission queue.",
		func() float64 { return float64(s.QueueDepth()) }, labels...)
}
