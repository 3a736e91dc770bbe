package oltp

import (
	"time"

	"batchdb/internal/mvcc"
	"batchdb/internal/proplog"
)

// worker executes stored procedures handed to it by the dispatcher and
// extracts the physical update log of its commits (paper §4: "each
// thread prepares its own set of updates" to avoid synchronization).
type worker struct {
	id     int
	engine *Engine

	// in carries one batch slice per dispatcher round.
	in   chan []request
	out  chan workerResult
	done chan struct{}

	// updates accumulates extracted updates between pushes. Only the
	// worker touches it while running; the dispatcher takes it at batch
	// boundaries when all workers are idle.
	updates *proplog.Buffer

	// gc revisits the chains this worker's commits wrote (nil when GC is
	// disabled); uncollected counts its commits since the last Collect.
	gc          *mvcc.Collector
	uncollected int
}

// workerResult reports a finished batch share: the WAL records of the
// transactions this worker committed, in commit-VID order, plus the
// client acknowledgments the dispatcher must deliver after group commit
// (logged commits are acknowledged durability-last).
type workerResult struct {
	walRecs []walRec
	acks    []pendingAck
}

type walRec struct {
	commitVID uint64
	readVID   uint64
	proc      string
	args      []byte
}

// pendingAck is a successful logged commit whose reply is withheld until
// the batch's group commit succeeds.
type pendingAck struct {
	reply   chan Response
	resp    Response
	arrived time.Time
	bulk    bool
}

func newWorker(id int, e *Engine) *worker {
	w := &worker{
		id:      id,
		engine:  e,
		in:      make(chan []request, 1),
		out:     make(chan workerResult, 1),
		done:    make(chan struct{}),
		updates: proplog.NewBuffer(id),
	}
	if e.cfg.GCEveryTxns > 0 {
		w.gc = e.store.NewCollector()
	}
	return w
}

func (w *worker) run() {
	defer close(w.done)
	for batch := range w.in {
		start := time.Now()
		var res workerResult
		for _, req := range batch {
			w.execOne(req, &res)
		}
		w.engine.stats.Busy.TrackSince(start)
		w.out <- res
		// Garbage collection runs after the share is handed back, so the
		// dispatcher's group commit and the clients' acknowledgements do
		// not wait for it.
		if w.gc != nil && w.uncollected >= w.engine.cfg.GCEveryTxns {
			w.gc.Collect()
			w.uncollected = 0
		}
	}
}

func (w *worker) execOne(req request, res *workerResult) {
	e := w.engine
	proc := e.procs[req.proc]
	tx := e.store.Begin()
	payload, err := proc(tx, req.args)
	if err != nil {
		tx.Abort()
		e.stats.Aborted.Inc()
		if err == mvcc.ErrConflict {
			e.stats.Conflicts.Inc()
		}
		req.reply <- Response{Err: err}
		return
	}
	readVID := tx.Snapshot()
	writes := tx.Writes()
	cv, err := tx.Commit()
	if err != nil {
		e.stats.Aborted.Inc()
		req.reply <- Response{Err: err}
		return
	}
	if cv != 0 {
		if w.gc != nil {
			w.gc.Committed(writes, cv)
			w.uncollected++
		}
		if e.sink.Load() != nil {
			// Extraction only runs with a sink attached: the paper's
			// NoRep configuration measures the engine without update
			// propagation (Fig. 7d).
			w.extract(writes, cv)
		}
		if e.log != nil {
			res.walRecs = append(res.walRecs, walRec{
				commitVID: cv, readVID: readVID, proc: req.proc, args: req.args,
			})
			// Withhold the acknowledgment until the dispatcher's group
			// commit makes the record durable; latency is recorded at
			// ack time so it covers durability.
			e.stats.Committed.Inc()
			if req.bulk {
				e.stats.BulkCommitted.Inc()
			}
			res.acks = append(res.acks, pendingAck{
				reply:   req.reply,
				resp:    Response{Payload: payload, CommitVID: cv},
				arrived: req.arrived,
				bulk:    req.bulk,
			})
			return
		}
	}
	e.stats.Committed.Inc()
	if req.bulk {
		e.stats.BulkCommitted.Inc()
		e.stats.BulkLatency.RecordSince(req.arrived)
	} else {
		e.stats.Latency.RecordSince(req.arrived)
	}
	req.reply <- Response{Payload: payload, CommitVID: cv}
}

// extract converts the transaction's write set into physical update-log
// entries (paper Fig. 3). Inserts carry the whole tuple; updates carry
// either per-field patches or the whole tuple image depending on
// configuration; deletes carry just the key. Every entry names its row by
// the chain's packed primary key, which the replica indexes it under.
func (w *worker) extract(writes []mvcc.WriteOp, commitVID uint64) {
	e := w.engine
	for i := range writes {
		op := &writes[i]
		id := op.Table.Schema.ID
		if e.cfg.Replicated != nil && !e.cfg.Replicated[id] {
			continue
		}
		switch op.Kind {
		case mvcc.OpInsert:
			w.updates.Add(id, proplog.Entry{
				VID: commitVID, Kind: proplog.Insert, Key: op.Chain.Key,
				Offset: 0, Size: uint32(len(op.New.Data)), Data: op.New.Data,
			})
			e.stats.PushedTuples.Inc()
		case mvcc.OpUpdate:
			if e.cfg.FieldSpecific && op.Cols != nil {
				sch := op.Table.Schema
				// Coalesce adjacent changed columns into contiguous
				// (Offset, Size) patches — the paper's update format is
				// byte ranges, not per-column records (Fig. 3). Cols is
				// ascending.
				cols := op.Cols
				for i := 0; i < len(cols); {
					off := sch.Offset(cols[i])
					end := off + sch.ColSize(cols[i])
					j := i + 1
					for j < len(cols) && sch.Offset(cols[j]) == end {
						end += sch.ColSize(cols[j])
						j++
					}
					w.updates.Add(id, proplog.Entry{
						VID: commitVID, Kind: proplog.Update, Key: op.Chain.Key,
						Offset: uint32(off), Size: uint32(end - off),
						Data: op.New.Data[off:end],
					})
					i = j
				}
			} else {
				w.updates.Add(id, proplog.Entry{
					VID: commitVID, Kind: proplog.Update, Key: op.Chain.Key,
					Offset: 0, Size: uint32(len(op.New.Data)), Data: op.New.Data,
				})
			}
			e.stats.PushedTuples.Inc()
		case mvcc.OpDelete:
			w.updates.Add(id, proplog.Entry{
				VID: commitVID, Kind: proplog.Delete, Key: op.Chain.Key,
			})
			e.stats.PushedTuples.Inc()
		}
	}
}
