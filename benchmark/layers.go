package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"batchdb/internal/chbench"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/replica"
	"batchdb/internal/wal"
)

// process is a reading of the Go runtime's and the OS's counters.
type process struct {
	mem runtime.MemStats
	cpu time.Duration
}

func readProcess() process {
	var p process
	runtime.ReadMemStats(&p.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

// sampler polls, four times a second, the gauges whose peak or whose
// every change matters: snapshot chain length, heap size, and the
// duration of each completed checkpoint.
type sampler struct {
	stop, done chan struct{}

	chainMax   float64
	heapPeak   float64
	ckptBusyNs float64
	busyNs     float64 // the sampler's own running time
}

func startSampler(s *sut) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		lastCkpt := readRegistry(s.reg)["batchdb_checkpoint_last_vid"]
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-tick.C:
			}
			t0 := now()
			r := readRegistry(s.reg)
			sm.chainMax = max(sm.chainMax, r["batchdb_olap_snapshot_chain_len"])
			if v := r["batchdb_checkpoint_last_vid"]; v != lastCkpt {
				lastCkpt = v
				sm.ckptBusyNs += r["batchdb_checkpoint_last_duration_ns"]
			}
			metrics.Read(heap)
			if heap[0].Value.Kind() == metrics.KindUint64 {
				sm.heapPeak = max(sm.heapPeak, float64(heap[0].Value.Uint64()))
			}
			sm.busyNs += float64(now() - t0)
		}
	}()
	return sm
}

func (sm *sampler) close() {
	close(sm.stop)
	<-sm.done
}

// traced is everything a traced window leaves behind for perLayer.
type traced struct {
	win      *phase
	w        window
	spans    []span
	dropped  int64
	sm       *sampler
	p0, p1   process
	apply    olap.ApplyStats
	fsyncUs  []float64
	recover  time.Duration
	replayed int
	replay   time.Duration
}

// tracedWindow runs the workload's window with spans recorded, between
// the readings and probes the per-layer metrics need.
func tracedWindow(s *sut, who sessions, seed int64, lead, dur time.Duration, dir string) (*traced, error) {
	td := &traced{w: window{absent: map[string]bool{}}}
	s.tr.capturing.Store(true)
	probe, err := newProbeReplica(s)
	if err != nil {
		return nil, fmt.Errorf("apply probe: %w", err)
	}
	td.sm = startSampler(s)
	td.win = s.runPhase("window", who, seed, lead, dur,
		func() {
			td.w.before, td.p0 = readRegistry(s.reg), readProcess()
			s.tr.on.Store(true)
		},
		func() {
			s.tr.on.Store(false)
			s.tr.capturing.Store(false)
			td.w.after, td.p1 = readRegistry(s.reg), readProcess()
		})
	td.sm.close()
	td.spans, td.dropped = s.tr.spans()
	// The quiesce also orders the dispatcher's last capture before the
	// probe reads it.
	if err := s.quiesce(); err != nil {
		return nil, err
	}
	if td.apply, err = applyProbe(probe, s.tr.capture); err != nil {
		return nil, fmt.Errorf("apply probe: %w", err)
	}
	if td.fsyncUs, err = fsyncProbe(dir); err != nil {
		return nil, fmt.Errorf("fsync probe: %w", err)
	}
	return td, nil
}

// spanDurations returns the spans' durations in the given unit, sorted.
func spanDurations(spans []span, unit float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur) / unit
	}
	sort.Float64s(out)
	return out
}

// perLayer derives the per-layer metrics of one traced window.
func perLayer(vs values, s *sut, who sessions, tr *traced) {
	win, w, secs := tr.win, &tr.w, tr.win.seconds()
	var kinds [numSpanKinds][]span
	for _, sp := range tr.spans {
		kinds[sp.kind] = append(kinds[sp.kind], sp)
	}
	txns := float64(len(win.txns))

	// oltp: the dispatcher and its workers.
	txnMs := durations(win.txns, 1e6)
	execNs := sum(txnMs) * 1e6
	vs.dist("oltp.txn_p99_ms", txnMs, 99)
	committed := w.delta("batchdb_oltp_txn_total,status=committed")
	vs.set("oltp.exec_busy_s", execNs/1e9)
	vs.set("oltp.batches", w.delta("batchdb_oltp_group_commit_total"))
	vs.set("oltp.txns_per_batch", ratio(committed, w.delta("batchdb_oltp_group_commit_total")))
	vs.set("oltp.busy_frac", w.delta("batchdb_oltp_busy_seconds")/(secs*float64(s.p)))

	// mvcc (+ index, tpcc): the procedure bodies.
	proc := spanDurations(kinds[spanProc], 1e3)
	vs.dist("mvcc.proc_us_p50", proc, 50)
	vs.dist("mvcc.proc_us_p99", proc, 99)
	vs.set("mvcc.proc_busy_s", sum(proc)/1e6)
	vs.set("mvcc.conflict_frac", ratio(float64(win.conflicts), float64(win.conflicts)+txns))

	// wal: every acknowledgement waits for its batch's group commit.
	appendUs, commitUs := spanDurations(kinds[spanWALAppend], 1e3), spanDurations(kinds[spanWALCommit], 1e3)
	vs.dist("wal.append_us_p50", appendUs, 50)
	vs.dist("wal.commit_us_p50", commitUs, 50)
	vs.dist("wal.commit_us_p99", commitUs, 99)
	vs.set("wal.commit_busy_s", (sum(appendUs)+sum(commitUs))/1e6)
	vs.set("wal.commits", float64(len(commitUs)))
	vs.set("wal.bytes_per_txn", ratio(w.delta("batchdb_wal_appended_bytes_total"), committed))
	sort.Float64s(tr.fsyncUs)
	vs.dist("wal.fsync_us_p50", tr.fsyncUs, 50)

	// A transaction's life not spent in its procedure or waiting for its
	// batch's log writes: dispatcher queue, batch barrier, acknowledgement.
	var walWaitNs float64
	appendNs := map[uint32]float64{}
	for _, sp := range kinds[spanWALAppend] {
		appendNs[sp.parent] += float64(sp.dur)
	}
	for _, sp := range kinds[spanWALCommit] {
		walWaitNs += (float64(sp.dur) + appendNs[sp.id]) * float64(sp.n)
	}
	vs.set("txn.residual_frac", 0)
	if execNs > 0 {
		vs.set("txn.residual_frac", max(0, 1-(sum(proc)*1e3+walWaitNs)/execNs))
	}

	// checkpoint.
	vs.set("checkpoint.count", w.delta("batchdb_checkpoints_total"))
	vs.set("checkpoint.busy_s", tr.sm.ckptBusyNs/1e9)
	vs.set("checkpoint.bytes_last", w.last("batchdb_checkpoint_last_bytes"))
	vs.set("checkpoint.recover_s", tr.recover.Seconds())
	vs.set("wal.replay_txn_per_s", ratio(float64(tr.replayed), tr.replay.Seconds()))

	// proplog: extraction hand-off, wire encoding and enqueue at the batch boundary.
	push := spanDurations(kinds[spanPush], 1e3)
	var entries, bytes float64
	for _, sp := range kinds[spanPush] {
		entries += float64(sp.n)
		bytes += float64(sp.m)
	}
	vs.dist("proplog.push_us_p50", push, 50)
	vs.dist("proplog.push_us_p99", push, 99)
	vs.set("proplog.push_busy_s", sum(push)/1e6)
	vs.set("proplog.pushes", float64(len(push)))
	vs.set("proplog.entries_per_txn", ratio(entries, committed))
	vs.set("proplog.bytes_per_txn", ratio(bytes, committed))

	// network: the primary's side of the loopback transport.
	eager := w.delta("batchdb_net_msgs_total,path=eager,side=primary")
	rdv := w.delta("batchdb_net_msgs_total,path=rendezvous,side=primary")
	vs.set("network.bytes_per_txn", ratio(w.delta("batchdb_net_bytes_total,dir=sent,side=primary"), committed))
	vs.set("network.msgs", eager+rdv)
	vs.set("network.rendezvous_frac", ratio(rdv, eager+rdv))

	// replica: the sync round trip and the bootstrap.
	syncUs := spanDurations(kinds[spanSync], 1e3)
	vs.dist("replica.sync_us_p50", syncUs, 50)
	vs.dist("replica.sync_us_p99", syncUs, 99)
	vs.set("replica.syncs", float64(len(syncUs)))
	vs.set("replica.bootstrap_s", s.bootstrap.Seconds())

	// olap/exec: a query's batch is the last one to end before its answer.
	batches := kinds[spanExecBatch]
	sort.Slice(batches, func(i, j int) bool { return batches[i].start+batches[i].dur < batches[j].start+batches[j].dur })
	var waitMs []float64
	var queryNs, ownExecNs, inBatches float64
	for _, q := range win.queries {
		i := sort.Search(len(batches), func(j int) bool { return batches[j].start+batches[j].dur > q.end }) - 1
		if i < 0 || batches[i].start < q.start {
			continue // its batch ran outside the traced window
		}
		queryNs += float64(q.end - q.start)
		ownExecNs += float64(batches[i].dur)
		waitMs = append(waitMs, float64(q.end-q.start-batches[i].dur)/1e6)
	}
	sort.Float64s(waitMs)
	batchMs := spanDurations(batches, 1e6)
	for _, b := range batches {
		inBatches += float64(b.n)
	}
	vs.dist("exec.batch_ms_p50", batchMs, 50)
	vs.dist("exec.batch_ms_p95", batchMs, 95)
	vs.set("exec.batch_busy_s", sum(batchMs)/1e3)
	vs.set("exec.batches", float64(len(batchMs)))
	vs.set("exec.queries_per_batch", ratio(inBatches, float64(len(batchMs))))
	const phase = "batchdb_olap_exec_phase_ns"
	vs.set("exec.build_ms_mean", w.mean(phase, ",phase=build")/1e6)
	vs.set("exec.scan_ms_mean", w.mean(phase, ",phase=scan")/1e6)
	vs.set("exec.merge_ms_mean", w.mean(phase, ",phase=merge")/1e6)
	scanned, skipped := w.delta("batchdb_olap_blocks_scanned_total"), w.delta("batchdb_olap_blocks_skipped_total")
	vs.set("exec.blocks_skipped_frac", ratio(skipped, scanned+skipped))
	vs.set("exec.blocks_vectorized_frac", ratio(w.delta("batchdb_olap_blocks_vectorized_total"), scanned))
	vs.set("exec.tuples_pruned", w.delta("batchdb_olap_tuples_pruned_total"))
	vs.set("exec.shared_query_frac", ratio(w.delta("batchdb_olap_queries_shared_total"), w.delta("batchdb_olap_queries_total")))

	// olap: scheduler, apply and snapshots.
	snapWaitNs := w.mean("batchdb_olap_snapshot_wait_ns", "")
	vs.dist("olap.query_p50_ms", durations(win.queries, 1e6), 50)
	vs.dist("olap.wait_ms_p50", waitMs, 50)
	vs.set("olap.snapwait_us_mean", snapWaitNs/1e3)
	vs.set("olap.apply_busy_s", w.delta("batchdb_olap_apply_ns_sum")/1e9)
	vs.set("olap.apply_us_mean", w.mean("batchdb_olap_apply_ns", "")/1e3)
	vs.set("olap.applied_entries", w.delta("batchdb_olap_applied_entries_total"))
	n := float64(tr.apply.Entries)
	vs.set("olap.apply_ns_per_entry", ratio(float64(tr.apply.Step1+tr.apply.Step2+tr.apply.Step3), n))
	vs.set("olap.apply_step1_ns_per_entry", ratio(float64(tr.apply.Step1), n))
	vs.set("olap.apply_step2_ns_per_entry", ratio(float64(tr.apply.Step2), n))
	vs.set("olap.apply_step3_ns_per_entry", ratio(float64(tr.apply.Step3), n))
	vs.dist("olap.staleness_ms_p50", staleness(win.queries, win.acks), 50)
	vs.set("olap.snapshot_chain_max", tr.sm.chainMax)
	vs.set("olap.snapshots_retired", w.delta("batchdb_olap_snapshots_retired_total"))
	vs.set("olap.busy_frac", w.delta("batchdb_olap_busy_seconds")/secs)
	// A query's life not spent in its batch's execution or at the
	// freshness barrier (which contains the sync): waiting for the batch
	// ahead of it to finish, and the reply.
	vs.set("query.residual_frac", 0)
	if queryNs > 0 {
		vs.set("query.residual_frac", max(0, 1-(ownExecNs+snapWaitNs*float64(len(waitMs)))/queryNs))
	}

	// ingest (+ resmodel's governor).
	loader := func(name string) float64 { // the window's loader exports its series only where one runs
		if !who.load {
			return 0
		}
		return w.delta("batchdb_ingest_" + name + ",phase=window")
	}
	ingestMs := spanDurations(kinds[spanIngestProc], 1e6)
	vs.set("ingest.rows_per_s", float64(win.loadRows)/secs)
	vs.set("ingest.chunks", loader("chunks_total"))
	vs.set("ingest.chunk_ms_mean", w.mean("batchdb_oltp_bulk_txn_latency_ns", "")/1e6)
	vs.dist("ingest.proc_ms_p50", ingestMs, 50)
	vs.dist("ingest.proc_ms_p99", ingestMs, 99)
	vs.set("ingest.retry_frac", ratio(loader("retries_total"), loader("chunks_total")))
	vs.set("ingest.throttles", loader("throttles_total"))
	vs.set("ingest.rate_final", win.report.FinalRate)

	// process and the benchmark itself.
	cpu := (tr.p1.cpu - tr.p0.cpu).Seconds()
	vs.set("go.gc_pause_ms_total", float64(tr.p1.mem.PauseTotalNs-tr.p0.mem.PauseTotalNs)/1e6)
	vs.set("go.gc_cycles", float64(tr.p1.mem.NumGC-tr.p0.mem.NumGC))
	vs.set("go.alloc_mb_per_s", float64(tr.p1.mem.TotalAlloc-tr.p0.mem.TotalAlloc)/(1<<20)/secs)
	vs.set("go.heap_peak_mb", tr.sm.heapPeak/(1<<20))
	vs.set("proc.cpu_s", cpu)
	vs.set("proc.cpu_util", cpu/(secs*float64(s.p)))
	vs.set("bench.gen_busy_frac", ratio(float64(win.genBusy), float64(win.sessBusy)))
	// Tracing's cost as a share of the CPU time the window used: every
	// span at its calibrated price, plus the sampler's own time. (What it
	// does to throughput is the difference between a --trace 0 and a
	// --trace 1 run; within one run the engine's rate varies too much to
	// tell, see README.)
	vs.set("bench.trace_overhead_frac", ratio(float64(len(tr.spans))*spanCostNs()+tr.sm.busyNs, cpu*1e9))
	vs.set("bench.txn_per_s", txns/secs)
	vs.set("bench.query_per_min", float64(len(win.queries))/secs*60)
	vs.set("bench.spans", float64(len(tr.spans)))
}

// applyProbe replays the pushes captured during the window into a
// replica loaded just before it, and returns the three apply steps'
// times as the layer itself reports them.
func applyProbe(probe *olap.Replica, pushes []capturedPush) (olap.ApplyStats, error) {
	var upTo uint64
	for _, p := range pushes {
		probe.ApplyUpdates(p.batches, p.upTo)
		upTo = p.upTo
	}
	return probe.ApplyPending(upTo)
}

// newProbeReplica loads a second replica from the primary's current state.
func newProbeReplica(s *sut) (*olap.Replica, error) {
	probe := chbench.EmptyReplica(s.db, olapPartitions)
	probe.EnableZoneMaps(exec.DefaultMorselTuples)
	probe.EnableCompression()
	probe.SetApplyWorkers(s.p)
	_, err := replica.LoadLocal(probe, s.db.Store, chbench.Tables())
	return probe, err
}

// fsyncProbe times up to 200 synced group commits (at most a second of
// them) on the disk the run directory is on.
func fsyncProbe(dir string) ([]float64, error) {
	dir = filepath.Join(dir, "fsync-probe")
	defer os.RemoveAll(dir)
	m, err := wal.OpenDir(dir, wal.DirOptions{Sync: true, StartVID: 1})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	var us []float64
	deadline := time.Now().Add(time.Second)
	for vid := uint64(1); vid <= 200 && time.Now().Before(deadline); vid++ {
		if err := m.Append(wal.Record{CommitVID: vid, ReadVID: vid - 1, Proc: "probe", Args: make([]byte, 64)}); err != nil {
			return us, err
		}
		t0 := time.Now()
		if err := m.Commit(); err != nil {
			return us, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return us, nil
}
