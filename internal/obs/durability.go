package obs

import "time"

// DurabilityStats aggregates the durability subsystem's counters:
// checkpointing progress, WAL segment usage, and recovery cost. One
// instance is shared by the WAL segment manager, the checkpointer, and
// the recovery path of a data-dir instance.
type DurabilityStats struct {
	// Checkpoints counts completed checkpoints; CheckpointFailures
	// counts attempts that did not produce a manifest-referenced file.
	Checkpoints        Counter
	CheckpointFailures Counter
	// LastCheckpoint* describe the most recent completed checkpoint.
	LastCheckpointVID   Gauge
	LastCheckpointNanos Gauge
	LastCheckpointBytes Gauge
	// LastCheckpointUnixNanos is the wall-clock completion time of the
	// most recent checkpoint (UnixNano; 0 = none yet) — the input to
	// the exported checkpoint-age gauge.
	LastCheckpointUnixNanos Gauge
	// WALAppendedBytes counts bytes group-committed into segments since
	// open; WALSegments is the live segment count; SegmentsTruncated
	// counts segments unlinked because a checkpoint superseded them.
	WALAppendedBytes  Counter
	WALSegments       Gauge
	SegmentsTruncated Counter
	// WALFsyncNanos measures each group-commit fsync (only recorded
	// when the log runs with Sync enabled).
	WALFsyncNanos Histogram
	// Recovery* describe the last recovery: commands replayed from the
	// WAL tail, time spent replaying, and how often the newest
	// checkpoint failed verification and an older one was used.
	RecoveryReplayed  Counter
	RecoveryNanos     Gauge
	RecoveryFallbacks Counter
}

// RegisterDurability exposes a DurabilityStats (shared by the WAL
// segment manager, the checkpointer, and recovery) through reg.
func RegisterDurability(reg *Registry, st *DurabilityStats, labels ...Label) {
	reg.ObserveCounter("batchdb_checkpoints_total", "Completed checkpoints.", &st.Checkpoints, labels...)
	reg.ObserveCounter("batchdb_checkpoint_failures_total", "Checkpoint attempts that failed.", &st.CheckpointFailures, labels...)
	reg.ObserveGauge("batchdb_checkpoint_last_vid", "VID of the most recent completed checkpoint.", &st.LastCheckpointVID, labels...)
	reg.ObserveGauge("batchdb_checkpoint_last_duration_ns", "Duration of the most recent checkpoint (nanoseconds).", &st.LastCheckpointNanos, labels...)
	reg.ObserveGauge("batchdb_checkpoint_last_bytes", "Size of the most recent checkpoint file.", &st.LastCheckpointBytes, labels...)
	reg.GaugeFunc("batchdb_checkpoint_age_seconds",
		"Seconds since the most recent checkpoint completed (-1 before the first).",
		func() float64 {
			t := st.LastCheckpointUnixNanos.Load()
			if t == 0 {
				return -1
			}
			return time.Since(time.Unix(0, t)).Seconds()
		}, labels...)
	reg.ObserveCounter("batchdb_wal_appended_bytes_total", "Bytes group-committed into WAL segments.", &st.WALAppendedBytes, labels...)
	reg.ObserveGauge("batchdb_wal_segments", "Live WAL segment count.", &st.WALSegments, labels...)
	reg.ObserveCounter("batchdb_wal_segments_truncated_total", "WAL segments unlinked after being superseded by a checkpoint.", &st.SegmentsTruncated, labels...)
	reg.ObserveHistogram("batchdb_wal_fsync_ns", "Group-commit fsync latency (nanoseconds, sync mode only).", &st.WALFsyncNanos, labels...)
	reg.ObserveCounter("batchdb_recovery_replayed_total", "Commands replayed from the WAL tail during recovery.", &st.RecoveryReplayed, labels...)
	reg.ObserveGauge("batchdb_recovery_duration_ns", "Duration of the last recovery replay (nanoseconds).", &st.RecoveryNanos, labels...)
	reg.ObserveCounter("batchdb_recovery_fallbacks_total", "Recoveries that fell back past an unverifiable checkpoint.", &st.RecoveryFallbacks, labels...)
}
