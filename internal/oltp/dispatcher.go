package oltp

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"batchdb/internal/proplog"
	"batchdb/internal/wal"
)

// ErrNotDurable reports a commit whose group-commit flush failed: the
// transaction committed in memory, but its log record may not have
// reached stable storage, so its outcome after a crash is unknown. The
// client must treat it as unacknowledged. After the first such failure
// the engine is stopped: every later request gets ErrNotDurable without
// executing, because a commit logged after the lost batch would sit
// behind a VID gap that recovery cannot replay across.
var ErrNotDurable = errors.New("oltp: commit not durable")

// maxBatch caps how many queued requests one batch may absorb; the
// request queue holds two batches' worth.
const maxBatch = 8192

// dispatch is the OLTP dispatcher loop (paper Fig. 1, §4 "Scheduling"):
// it runs one batch of requests at a time, performs group commit of the
// durable log at batch boundaries, and pushes the extracted physical
// updates to the OLAP sink either on demand or every PushPeriod.
func (e *Engine) dispatch() {
	defer close(e.closed)
	lastPush := time.Now()
	pending := make([]request, 0, maxBatch)
	timer := time.NewTimer(e.cfg.PushPeriod)
	defer timer.Stop()

	for {
		// Gather the next batch: drain whatever has queued up, blocking
		// only when there is nothing to do.
		pending = pending[:0]
		var syncWaiters, ckptWaiters []chan uint64
		select {
		case r := <-e.queue:
			pending = append(pending, r)
		case s := <-e.syncReq:
			syncWaiters = append(syncWaiters, s)
		case c := <-e.ckptReq:
			ckptWaiters = append(ckptWaiters, c)
		case <-timer.C:
		case <-e.closing:
			e.drainAndStop(pending)
			return
		}
	drain:
		for len(pending) < maxBatch {
			select {
			case r := <-e.queue:
				pending = append(pending, r)
			case s := <-e.syncReq:
				syncWaiters = append(syncWaiters, s)
			case c := <-e.ckptReq:
				ckptWaiters = append(ckptWaiters, c)
			default:
				break drain
			}
		}

		if len(pending) > 0 {
			e.runBatch(pending)
		}

		// Batch boundary: all workers idle, the log group-committed
		// through the current watermark. This is the consistent cut
		// CheckpointVID promises (no transaction spans it).
		for _, c := range ckptWaiters {
			c <- e.store.VIDs.Watermark()
		}

		// Push updates if asked for, or if the push period elapsed since
		// the last push of either kind (paper §3.2).
		if len(syncWaiters) > 0 || time.Since(lastPush) >= e.cfg.PushPeriod {
			covered := e.pushUpdates()
			lastPush = time.Now()
			for _, s := range syncWaiters {
				s <- covered
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(e.cfg.PushPeriod)
	}
}

// runBatch distributes requests round-robin over the workers, waits for
// completion, group-commits the durable log, and only then acknowledges
// logged write commits — a commit must not be reported to the client
// before its log record is durable, or a crash could lose an
// acknowledged transaction.
func (e *Engine) runBatch(batch []request) {
	if err := e.Err(); err != nil {
		for _, r := range batch {
			r.reply <- Response{Err: err}
		}
		return
	}
	// The share buffers are the engine's, reused by every batch: a worker
	// is done with its share before it reports, and the next batch starts
	// only after every worker has reported.
	n := len(e.workers)
	shares := e.shares
	for i, r := range batch {
		shares[i%n] = append(shares[i%n], r)
	}
	for i, w := range e.workers {
		if len(shares[i]) > 0 {
			w.in <- shares[i]
		}
	}
	var recs []walRec
	var acks []pendingAck
	for i, w := range e.workers {
		if len(shares[i]) > 0 {
			res := <-w.out
			recs = append(recs, res.walRecs...)
			acks = append(acks, res.acks...)
			clear(shares[i]) // drop the requests' args and reply channels
			shares[i] = shares[i][:0]
		}
	}
	e.stats.Batches.Inc()
	if e.log != nil && len(recs) > 0 {
		var logErr error
		// Log in commit-VID order so replay is deterministic; committed
		// VIDs are dense, which recovery asserts.
		sort.Slice(recs, func(i, j int) bool { return recs[i].commitVID < recs[j].commitVID })
		for _, r := range recs {
			if logErr = e.log.Append(wal.Record{
				CommitVID: r.commitVID, ReadVID: r.readVID, Proc: r.proc, Args: r.args,
			}); logErr != nil {
				break
			}
		}
		if logErr == nil {
			logErr = e.log.Commit() // group commit for the whole batch
		}
		if logErr != nil {
			// The batch is lost from the log: stop here (ErrNotDurable).
			err := fmt.Errorf("%w: %w", ErrNotDurable, logErr)
			e.logErr.Store(&err)
		}
	}
	err := e.Err()
	for _, a := range acks {
		if err != nil {
			a.reply <- Response{Err: err}
			continue
		}
		if a.bulk {
			e.stats.BulkLatency.RecordSince(a.arrived)
		} else {
			e.stats.Latency.RecordSince(a.arrived)
		}
		a.reply <- a.resp
	}
}

// pushUpdates takes every worker's update buffer (all workers are idle
// at a batch boundary, so this is race-free) and hands the batches to
// the sink. Returns the covered watermark. Once the log has failed it
// ships nothing more — the buffers may hold the lost batch's updates —
// and returns the last watermark it did push, so no replica moves past
// what the log holds.
func (e *Engine) pushUpdates() uint64 {
	holder := e.sink.Load()
	stopped := e.Err() != nil
	if holder == nil || stopped {
		// NoRep or stopped: discard extracted updates so buffers stay
		// bounded.
		for _, w := range e.workers {
			if w.updates.Len() > 0 {
				w.updates.Take()
			}
		}
		if !stopped {
			e.pushed.Store(e.store.VIDs.Watermark())
		}
		return e.pushed.Load()
	}
	covered := e.store.VIDs.Watermark()
	var batches []proplog.Batch
	for _, w := range e.workers {
		if w.updates.Len() > 0 {
			b := w.updates.Take()
			batches = append(batches, b)
		}
	}
	holder.s.ApplyUpdates(batches, covered)
	e.stats.Pushes.Inc()
	e.pushed.Store(covered)
	return covered
}

// drainAndStop flushes extracted updates and fails queued requests
// during shutdown.
func (e *Engine) drainAndStop(pending []request) {
	covered := e.pushUpdates() // final push so no committed update is stranded
	for _, r := range pending {
		r.reply <- Response{Err: ErrClosed}
	}
	for {
		select {
		case r := <-e.queue:
			r.reply <- Response{Err: ErrClosed}
		case s := <-e.syncReq:
			s <- covered
		case c := <-e.ckptReq:
			c <- e.store.VIDs.Watermark()
		default:
			return
		}
	}
}
