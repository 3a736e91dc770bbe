// Package oltp implements BatchDB's transactional component: the primary
// replica of paper §4 and the left half of Fig. 1.
//
// Clients submit stored-procedure calls. A single dispatcher schedules
// them one batch at a time: while a batch executes, incoming requests
// queue up; when the batch finishes, the dispatcher drains the queue and
// hands requests to worker threads round-robin. Batch boundaries are
// where the cheap amortized work happens — group commit of the command
// log and propagation of the physical update log to the OLAP replica
// (every push period, or immediately when the OLAP dispatcher asks for
// the latest snapshot version). Version garbage collection is the
// workers': each revisits the chains its own commits wrote, after handing
// a batch share back (paper §4: workers amortize GC across batches).
package oltp

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"batchdb/internal/mvcc"
	"batchdb/internal/obs"
	"batchdb/internal/proplog"
	"batchdb/internal/storage"
	"batchdb/internal/wal"
)

// Procedure is a natively registered stored procedure. It must be
// deterministic given (args, snapshot): all randomness belongs in args,
// which is what makes command logging sufficient for recovery. The
// returned payload is delivered to the client verbatim.
type Procedure func(tx *mvcc.Txn, args []byte) ([]byte, error)

// CommandLog is the durable command log the dispatcher group-commits at
// batch boundaries: the segmented wal.Manager the data-dir boot path
// installs with SetLog.
type CommandLog interface {
	Append(wal.Record) error
	Commit() error
	Close() error
}

// UpdateSink receives pushed update batches. It is implemented by the
// local OLAP replica and by the network forwarder for remote replicas.
// upTo is the commit watermark covered: after the call, the sink holds
// every update with VID <= upTo.
type UpdateSink interface {
	ApplyUpdates(batches []proplog.Batch, upTo uint64)
}

// Config parameterizes the OLTP engine.
type Config struct {
	// Workers is the number of worker threads (paper: one NUMA node's
	// cores). Default 4.
	Workers int
	// PushPeriod bounds update staleness: updates are pushed at the
	// first batch boundary that comes this long after the last push,
	// even if the OLAP replica did not ask (paper §3.2: 200 ms). A push
	// the replica forced (SyncUpdates) restarts the period like any
	// other, so under a replica that syncs more often than the period —
	// one answering queries does, at every batch — the period never
	// fires: it is the staleness bound of an idle replica, not a push
	// cadence. Default 200 ms.
	PushPeriod time.Duration
	// Replicated marks the tables whose updates are extracted and
	// propagated (paper §8.3 propagates only the relations used by the
	// analytical workload). Nil propagates every table.
	Replicated map[storage.TableID]bool
	// FieldSpecific selects sub-tuple (offset/size) update extraction
	// rather than whole-tuple images (paper Fig. 6 compares both).
	FieldSpecific bool
	// GCEveryTxns paces version garbage collection: a worker re-reads the
	// snapshot horizon and revisits the chains its commits wrote once it
	// has committed this many transactions since it last did. The work is
	// proportional to the writes in between whatever the value, which
	// only bounds how long replaced versions and deleted rows linger; no
	// workload needs it tuned. Negative disables GC (every version is
	// kept). Default 64.
	GCEveryTxns int
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.PushPeriod <= 0 {
		c.PushPeriod = 200 * time.Millisecond
	}
	if c.GCEveryTxns == 0 {
		c.GCEveryTxns = 64
	}
}

// Stats exposes the engine's performance counters. Latency holds only
// interactive (non-bulk) transactions: it is the histogram SLO
// governors sample for the "unperturbed OLTP p99" signal, so bulk
// ingest chunks — huge transactions by design — are accounted
// separately in BulkLatency and must never pollute it.
type Stats struct {
	Committed    obs.Counter
	Aborted      obs.Counter
	Conflicts    obs.Counter
	Batches      obs.Counter
	Pushes       obs.Counter
	PushedTuples obs.Counter
	Latency      obs.Histogram
	Busy         obs.BusyTracker
	// Bulk-class procedures (RegisterBulk): commit count and per-call
	// latency, kept out of the interactive histogram above.
	BulkCommitted obs.Counter
	BulkLatency   obs.Histogram
}

// Response is the outcome of one stored-procedure call.
type Response struct {
	// Payload is the procedure's result.
	Payload []byte
	// CommitVID is the commit VID (0 for read-only procedures).
	CommitVID uint64
	// Err is nil on commit; mvcc.ErrConflict signals a retryable abort.
	Err error
}

// request travels from client to dispatcher to worker.
type request struct {
	proc    string
	args    []byte
	reply   chan Response
	arrived time.Time
	// bulk routes latency accounting to Stats.BulkLatency.
	bulk bool
}

// Engine is the OLTP replica.
type Engine struct {
	cfg   Config
	store *mvcc.Store
	procs map[string]Procedure
	bulk  map[string]bool
	sink  atomic.Pointer[sinkHolder]

	queue   chan request
	syncReq chan chan uint64
	ckptReq chan chan uint64
	closing chan struct{}
	closed  chan struct{}

	workers []*worker
	// shares holds runBatch's per-worker request buffers.
	shares  [][]request
	log     CommandLog
	started bool
	// logErr is the first failed group commit (wrapping ErrNotDurable),
	// set once by the dispatcher: from then on the engine executes
	// nothing (Err).
	logErr atomic.Pointer[error]
	// pushed is the watermark of the last push (or, with no sink, of
	// the last batch boundary that would have pushed): what SyncUpdates
	// reports once the engine closes or its log fails.
	pushed atomic.Uint64

	stats Stats
}

// New creates an engine over an existing store. Register procedures and
// load data before calling Start.
func New(store *mvcc.Store, cfg Config) (*Engine, error) {
	cfg.fill()
	e := &Engine{
		cfg:     cfg,
		store:   store,
		procs:   make(map[string]Procedure),
		queue:   make(chan request, maxBatch*2),
		syncReq: make(chan chan uint64, 16),
		ckptReq: make(chan chan uint64, 16),
		closing: make(chan struct{}),
		closed:  make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		e.workers = append(e.workers, newWorker(i, e))
	}
	e.shares = make([][]request, cfg.Workers)
	return e, nil
}

// Store returns the underlying MVCC store.
func (e *Engine) Store() *mvcc.Store { return e.store }

// SetLog installs the command log. The data-dir boot path opens the
// segmented log itself — after recovery has decided where logging
// resumes — and hands it over here. Must be called before Start.
func (e *Engine) SetLog(l CommandLog) { e.log = l }

// Stats returns the engine's counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// Register installs a stored procedure under name. Must be called
// before Start.
func (e *Engine) Register(name string, p Procedure) {
	e.procs[name] = p
}

// RegisterBulk installs a stored procedure whose calls are accounted as
// bulk work: commits count into Stats.BulkCommitted and latency into
// Stats.BulkLatency instead of the interactive Stats.Latency histogram,
// so a governor sampling OLTP p99 sees only the traffic it protects.
// Bulk calls still ride the normal batch/group-commit/replication path
// — the classification is purely observational. Must be called before
// Start.
func (e *Engine) RegisterBulk(name string, p Procedure) {
	e.procs[name] = p
	if e.bulk == nil {
		e.bulk = make(map[string]bool)
	}
	e.bulk[name] = true
}

// Proc returns the registered procedure with the given name, or nil.
// Exposed so alternative schedulers (the shared-engine baselines of
// paper §8.5) can reuse the same procedure implementations.
func (e *Engine) Proc(name string) Procedure { return e.procs[name] }

type sinkHolder struct{ s UpdateSink }

// multiSink fans one push out to several sinks.
type multiSink []UpdateSink

// ApplyUpdates delivers the push to every sink.
func (m multiSink) ApplyUpdates(batches []proplog.Batch, upTo uint64) {
	for _, s := range m {
		s.ApplyUpdates(batches, upTo)
	}
}

// SetSink installs the update sink, replacing any previous sinks. A nil
// sink disables propagation (the paper's "NoRep" configuration).
func (e *Engine) SetSink(s UpdateSink) {
	if s == nil {
		e.sink.Store(nil)
		return
	}
	e.sink.Store(&sinkHolder{s: s})
}

// AddSink attaches an additional update sink at runtime — how new
// replicas join for elasticity (paper §3.2, §6: the primary can feed
// multiple secondaries). Pushes after this call reach the new sink;
// combine with a snapshot bootstrap and the replica's VID floor to
// avoid gaps or double-application.
func (e *Engine) AddSink(s UpdateSink) {
	for {
		old := e.sink.Load()
		var next UpdateSink = s
		if old != nil {
			if m, ok := old.s.(multiSink); ok {
				next = append(append(multiSink(nil), m...), s)
			} else {
				next = multiSink{old.s, s}
			}
		}
		if e.sink.CompareAndSwap(old, &sinkHolder{s: next}) {
			return
		}
	}
}

// RemoveSink detaches a sink attached with SetSink or AddSink — how a
// dead replica's forwarder is dropped so the dispatcher stops encoding
// pushes for it. Removing a sink that is not attached is a no-op.
func (e *Engine) RemoveSink(s UpdateSink) {
	for {
		old := e.sink.Load()
		if old == nil {
			return
		}
		var holder *sinkHolder
		if m, ok := old.s.(multiSink); ok {
			next := make(multiSink, 0, len(m))
			for _, x := range m {
				if x != s {
					next = append(next, x)
				}
			}
			switch len(next) {
			case len(m):
				return // not attached
			case 0:
				holder = nil
			case 1:
				holder = &sinkHolder{s: next[0]}
			default:
				holder = &sinkHolder{s: next}
			}
		} else if old.s == s {
			holder = nil
		} else {
			return // not attached
		}
		if e.sink.CompareAndSwap(old, holder) {
			return
		}
	}
}

// Start launches the dispatcher and workers. If transactions have
// already committed against the store — recovery replay, which keeps
// every version because later records re-read at their logged ReadVID —
// what they left behind is swept once first: the workers' collectors
// only ever see chains written from now on.
func (e *Engine) Start() {
	if e.cfg.GCEveryTxns > 0 && e.store.VIDs.Watermark() > 0 {
		e.store.CollectGarbage()
	}
	e.started = true
	e.pushed.Store(e.store.VIDs.Watermark())
	for _, w := range e.workers {
		go w.run()
	}
	go e.dispatch()
}

// Close drains in-flight work, stops the engine, and closes the log.
// Closing an engine that was never started only releases the log.
func (e *Engine) Close() error {
	close(e.closing)
	if e.started {
		<-e.closed
		for _, w := range e.workers {
			close(w.in)
			<-w.done
		}
	}
	if e.log != nil {
		return e.log.Close()
	}
	return nil
}

// ErrUnknownProc reports a call to an unregistered procedure.
var ErrUnknownProc = errors.New("oltp: unknown stored procedure")

// ErrClosed reports a call submitted after Close.
var ErrClosed = errors.New("oltp: engine closed")

// Exec submits a stored-procedure call and waits for its outcome. Once
// the engine has stopped on a failed log write it answers Err at once.
func (e *Engine) Exec(proc string, args []byte) Response {
	if _, ok := e.procs[proc]; !ok {
		return Response{Err: fmt.Errorf("%w: %q", ErrUnknownProc, proc)}
	}
	if err := e.Err(); err != nil {
		return Response{Err: err}
	}
	reply := make(chan Response, 1)
	select {
	case e.queue <- request{proc: proc, args: args, reply: reply, arrived: time.Now(), bulk: e.bulk[proc]}:
	case <-e.closing:
		return Response{Err: ErrClosed}
	}
	select {
	case r := <-reply:
		return r
	case <-e.closed:
		return Response{Err: ErrClosed}
	}
}

// Err returns the first failed group commit, wrapping ErrNotDurable, or
// nil while the log holds every acknowledged commit. It is safe to call
// from any goroutine; once non-nil it never changes, and the engine
// executes nothing more.
func (e *Engine) Err() error {
	if p := e.logErr.Load(); p != nil {
		return *p
	}
	return nil
}

// LatestVID returns the current committed snapshot watermark.
func (e *Engine) LatestVID() uint64 { return e.store.VIDs.Watermark() }

// CheckpointVID returns a commit watermark captured at a batch
// boundary: every transaction with VID <= the returned value has fully
// committed and been group-committed to the log, and every later
// transaction both reads and commits strictly above it (workers only
// begin transactions inside later batches). A checkpoint taken at this
// VID is therefore a consistent cut: replaying the log records above it
// re-executes exactly the missing suffix, each at a ReadVID >= the cut,
// so replay-from-checkpoint observes the same data the original
// execution did.
func (e *Engine) CheckpointVID() uint64 {
	reply := make(chan uint64, 1)
	select {
	case e.ckptReq <- reply:
	case <-e.closing:
		return e.LatestVID()
	}
	select {
	case v := <-reply:
		return v
	case <-e.closed:
		return e.LatestVID()
	}
}

// SyncUpdates asks the dispatcher for an immediate push of the physical
// update log and blocks until the sink has received every update up to
// the returned VID. This is the "OLAP dispatcher fetches the latest
// snapshot version" interaction of paper Fig. 1. A closed engine
// reports the watermark of its last push.
func (e *Engine) SyncUpdates() uint64 {
	reply := make(chan uint64, 1)
	select {
	case e.syncReq <- reply:
	case <-e.closing:
		return e.pushed.Load()
	}
	select {
	case v := <-reply:
		return v
	case <-e.closed:
		return e.pushed.Load()
	}
}
