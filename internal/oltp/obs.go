package oltp

import (
	"batchdb/internal/mvcc"
	"batchdb/internal/obs"
)

// Register exposes the engine's counters through reg as registry views
// (the struct stays the live storage; the registry reads it).
func (s *Stats) Register(reg *obs.Registry, labels ...obs.Label) {
	with := func(extra ...obs.Label) []obs.Label {
		return append(append([]obs.Label(nil), labels...), extra...)
	}
	reg.ObserveCounter("batchdb_oltp_txn_total",
		"Stored-procedure calls by outcome.", &s.Committed, with(obs.L("status", "committed"))...)
	reg.ObserveCounter("batchdb_oltp_txn_total",
		"Stored-procedure calls by outcome.", &s.Aborted, with(obs.L("status", "aborted"))...)
	reg.ObserveCounter("batchdb_oltp_txn_total",
		"Stored-procedure calls by outcome.", &s.Conflicts, with(obs.L("status", "conflict"))...)
	reg.ObserveHistogram("batchdb_oltp_txn_latency_ns",
		"Queue + execution time per interactive transaction (nanoseconds).", &s.Latency, labels...)
	reg.ObserveCounter("batchdb_oltp_bulk_txn_total",
		"Committed bulk-class (ingest) stored-procedure calls.", &s.BulkCommitted, labels...)
	reg.ObserveHistogram("batchdb_oltp_bulk_txn_latency_ns",
		"Queue + execution time per bulk-class call (nanoseconds).", &s.BulkLatency, labels...)
	reg.ObserveCounter("batchdb_oltp_group_commit_total",
		"Dispatcher batches (one group commit each).", &s.Batches, labels...)
	reg.ObserveCounter("batchdb_oltp_pushes_total",
		"Update-log pushes to the OLAP sink.", &s.Pushes, labels...)
	reg.ObserveCounter("batchdb_oltp_pushed_tuples_total",
		"Tuple updates propagated to the OLAP sink.", &s.PushedTuples, labels...)
	reg.GaugeFunc("batchdb_oltp_busy_seconds",
		"Cumulative worker busy time (seconds).",
		func() float64 { return s.Busy.Busy().Seconds() }, labels...)
}

// RegisterMetrics registers the engine's counters, its live commit
// watermark and the state of the store's scan lists and version GC
// through reg.
func (e *Engine) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	e.stats.Register(reg, labels...)
	reg.GaugeFunc("batchdb_oltp_log_failed",
		"1 once a group commit failed and the engine stopped (every request then gets ErrNotDurable), else 0.",
		func() float64 {
			if e.Err() != nil {
				return 1
			}
			return 0
		}, labels...)
	reg.GaugeFunc("batchdb_oltp_watermark_vid",
		"Primary committed snapshot watermark.",
		func() float64 { return float64(e.LatestVID()) }, labels...)

	perTable := func(fn func(*mvcc.Table) int) func() float64 {
		return func() float64 {
			n := 0
			for _, t := range e.store.Tables() {
				n += fn(t)
			}
			return float64(n)
		}
	}
	reg.GaugeFunc("batchdb_mvcc_scanlist_slots",
		"Scan-list slots ever reserved, all tables (retired rows' slots are reused).",
		perTable((*mvcc.Table).ScanListSlots), labels...)
	reg.GaugeFunc("batchdb_mvcc_chains_live",
		"Version chains in the scan lists, all tables.",
		perTable((*mvcc.Table).NumChains), labels...)
	reg.GaugeFunc("batchdb_mvcc_gc_retire_queue",
		"Written chains the workers have yet to revisit for garbage collection.",
		func() float64 {
			n := 0
			for _, w := range e.workers {
				if w.gc != nil {
					n += w.gc.Pending()
				}
			}
			return float64(n)
		}, labels...)
	reg.GaugeFunc("batchdb_mvcc_gc_horizon_lag",
		"Commit VIDs between the watermark and the oldest registered snapshot (what GC cannot reclaim yet).",
		func() float64 {
			horizon := e.store.MinActiveSnapshot() // first: it is bounded by the watermark it reads
			return float64(e.LatestVID() - horizon)
		}, labels...)
	reg.CounterFunc("batchdb_mvcc_gc_chains_visited_total",
		"Version chains garbage collection examined.",
		e.store.ChainsVisited, labels...)
	reg.CounterFunc("batchdb_mvcc_versions_unlinked_total",
		"Row versions garbage collection cut out of their chains.",
		e.store.VersionsUnlinked, labels...)
	reg.CounterFunc("batchdb_mvcc_chains_retired_total",
		"Deleted rows garbage collection removed from the indexes and scan lists.",
		e.store.ChainsRetired, labels...)
}
