// Package baseline implements the two single-replica shared engines
// BatchDB is compared against in paper §8.5 (Fig. 8).
//
// SAP HANA and MemSQL are proprietary, so the comparison reproduces the
// *mechanisms* behind their measured failure modes rather than the
// binaries: both baselines run OLTP transactions and OLAP queries on
// one shared copy of the data (the MVCC store) with one shared worker
// pool, differing only in scheduling policy:
//
//   - FairShared (HANA-like): workers pull OLTP requests and OLAP
//     queries fairly. Long analytical scans occupy workers and walk the
//     same version chains transactions mutate, so a large OLAP load
//     starves OLTP — the >5x transactional collapse of Fig. 8a.
//   - OLTPPriority (MemSQL-like): workers always prefer pending OLTP
//     requests and at most one worker runs analytics at a time
//     (mirroring MemSQL's single-threaded secondary path). Under high
//     OLTP load analytics starve — the reversed collapse of Fig. 8b.
//
// Queries are evaluated directly against the transactional MVCC store
// (snapshot reads over version chains, index point lookups for joins),
// i.e. with exactly the synchronization and cache interference that
// BatchDB's replica design removes.
package baseline

import (
	"strings"

	"batchdb/internal/mvcc"
	"batchdb/internal/olap/exec"
	"batchdb/internal/oltp"
	"batchdb/internal/storage"
	"batchdb/internal/tpcc"
)

// Policy selects the scheduling behaviour.
type Policy int

// Scheduling policies.
const (
	// FairShared serves OLTP and OLAP from one queue set without
	// priorities (HANA-like behaviour under mixed load).
	FairShared Policy = iota
	// OLTPPriority strictly prefers OLTP work and limits analytics to
	// one worker (MemSQL-like behaviour under mixed load).
	OLTPPriority
)

func (p Policy) String() string {
	if p == FairShared {
		return "fair-shared"
	}
	return "oltp-priority"
}

// Engine is a single-replica engine running hybrid workloads on shared
// data and shared workers.
type Engine struct {
	db     *tpcc.DB
	policy Policy

	txnQ   chan txnReq
	queryQ chan queryReq
	stop   chan struct{}
	done   []chan struct{}
}

type txnReq struct {
	proc  string
	args  []byte
	reply chan oltp.Response
}

type queryReq struct {
	q     *exec.Query
	reply chan exec.Result
}

// procFor resolves the TPC-C procedure by name against the shared DB.
type procTable map[string]oltp.Procedure

// New creates a baseline engine with the given worker count and policy.
func New(db *tpcc.DB, workers int, policy Policy) *Engine {
	if workers < 1 {
		workers = 1
	}
	e := &Engine{
		db:     db,
		policy: policy,
		txnQ:   make(chan txnReq, 4096),
		queryQ: make(chan queryReq, 4096),
		stop:   make(chan struct{}),
	}
	procs := registerAll(db)
	for i := 0; i < workers; i++ {
		done := make(chan struct{})
		e.done = append(e.done, done)
		go e.worker(i, procs, done)
	}
	return e
}

// registerAll builds the stored-procedure table by reusing the TPC-C
// procedures through a throwaway oltp.Engine registry.
func registerAll(db *tpcc.DB) procTable {
	tmp, err := oltp.New(db.Store, oltp.Config{Workers: 1})
	if err != nil {
		panic(err)
	}
	tpcc.RegisterProcs(tmp, db, false)
	return procTable{
		tpcc.ProcNewOrder:    tmp.Proc(tpcc.ProcNewOrder),
		tpcc.ProcPayment:     tmp.Proc(tpcc.ProcPayment),
		tpcc.ProcOrderStatus: tmp.Proc(tpcc.ProcOrderStatus),
		tpcc.ProcDelivery:    tmp.Proc(tpcc.ProcDelivery),
		tpcc.ProcStockLevel:  tmp.Proc(tpcc.ProcStockLevel),
	}
}

// Close stops the workers.
func (e *Engine) Close() {
	close(e.stop)
	for _, d := range e.done {
		<-d
	}
}

// ExecTxn runs one stored procedure through the shared worker pool.
func (e *Engine) ExecTxn(proc string, args []byte) oltp.Response {
	reply := make(chan oltp.Response, 1)
	select {
	case e.txnQ <- txnReq{proc: proc, args: args, reply: reply}:
	case <-e.stop:
		return oltp.Response{Err: oltp.ErrClosed}
	}
	select {
	case r := <-reply:
		return r
	case <-e.stop:
		return oltp.Response{Err: oltp.ErrClosed}
	}
}

// Query runs one analytical query through the shared worker pool.
func (e *Engine) Query(q *exec.Query) exec.Result {
	reply := make(chan exec.Result, 1)
	select {
	case e.queryQ <- queryReq{q: q, reply: reply}:
	case <-e.stop:
		return exec.Result{Err: oltp.ErrClosed}
	}
	select {
	case r := <-reply:
		return r
	case <-e.stop:
		return exec.Result{Err: oltp.ErrClosed}
	}
}

func (e *Engine) worker(id int, procs procTable, done chan struct{}) {
	defer close(done)
	for {
		switch e.policy {
		case OLTPPriority:
			// Strictly drain OLTP first. Only worker 0 ever serves
			// analytics (MemSQL's single-threaded secondary path); the
			// rest are dedicated to transactions, so analytical load
			// can never stall OLTP — only the reverse.
			select {
			case t := <-e.txnQ:
				e.runTxn(procs, t)
				continue
			case <-e.stop:
				return
			default:
			}
			if id != 0 {
				select {
				case t := <-e.txnQ:
					e.runTxn(procs, t)
				case <-e.stop:
					return
				}
				continue
			}
			select {
			case t := <-e.txnQ:
				e.runTxn(procs, t)
			case q := <-e.queryQ:
				e.runQuery(q)
			case <-e.stop:
				return
			}
		default: // FairShared
			select {
			case t := <-e.txnQ:
				e.runTxn(procs, t)
			case q := <-e.queryQ:
				e.runQuery(q)
			case <-e.stop:
				return
			}
		}
	}
}

func (e *Engine) runTxn(procs procTable, t txnReq) {
	proc := procs[t.proc]
	tx := e.db.Store.Begin()
	payload, err := proc(tx, t.args)
	if err != nil {
		tx.Abort()
		t.reply <- oltp.Response{Err: err}
		return
	}
	cv, err := tx.Commit()
	if err != nil {
		t.reply <- oltp.Response{Err: err}
		return
	}
	t.reply <- oltp.Response{Payload: payload, CommitVID: cv}
}

// runQuery evaluates q directly on the MVCC store at the current
// snapshot: a full chain scan of the driver with visibility checks, and
// primary-index point lookups for every probe — the single-instance
// design whose interference Fig. 8 quantifies.
func (e *Engine) runQuery(r queryReq) {
	q := r.q
	tx := e.db.Store.BeginRO()
	defer tx.Release()

	res := exec.Result{Query: q, Values: make([]float64, len(q.Aggs))}
	// Run only what the engine would: declarations that fit the schemas.
	if res.Err = q.Check(func(id storage.TableID) *storage.Schema {
		if t := e.db.TableByID(id); t != nil {
			return t.Schema
		}
		return nil
	}); res.Err != nil {
		r.reply <- res
		return
	}
	driver := e.db.TableByID(q.Driver)
	probed := make([]*mvcc.Table, len(q.Probes))
	for i := range q.Probes {
		probed[i] = e.db.TableByID(q.Probes[i].Table)
	}
	ds := driver.Schema
	joined := make([][]byte, 0, len(q.Probes))
	driver.Scan(tx, func(_ uint64, tup []byte) bool {
		if !Accepts(ds, q.Where, tup) {
			return true
		}
		joined = joined[:0]
		for i := range q.Probes {
			p := &q.Probes[i]
			fs, from := ds, tup
			if p.From >= 0 {
				fs, from = probed[p.From].Schema, joined[p.From]
			}
			match, ok := tx.Get(probed[i], KeyOf(fs, p.Key, from))
			if !ok || !Accepts(probed[i].Schema, p.Where, match) {
				return true
			}
			joined = append(joined, match)
		}
		res.Rows++
		for ai, a := range q.Aggs {
			switch a.Kind {
			case exec.Sum:
				res.Values[ai] += Summand(ds, a, tup)
			case exec.Count:
				res.Values[ai]++
			}
		}
		return true
	})
	r.reply <- res
}

// The scalar evaluator: the declared parts of a query (exec.Pred,
// exec.KeyField, exec.AggSpec) evaluated one tuple at a time through
// the schema's accessors. It shares no code with the engine's vector
// kernels, so an answer both give alike has been computed twice,
// independently.

// Accepts reports whether tup of schema s passes every conjunct of
// preds.
func Accepts(s *storage.Schema, preds []exec.Pred, tup []byte) bool {
	for _, p := range preds {
		var ok bool
		switch p.Kind {
		case exec.IntRange, exec.FloatRange:
			v := s.OrdKey(tup, p.Col)
			ok = p.Lo <= v && v <= p.Hi
		case exec.StrPrefix:
			ok = strings.HasPrefix(s.GetString(tup, p.Col), p.Str)
		case exec.StrEqual:
			ok = s.GetString(tup, p.Col) == p.Str
		case exec.StrContains:
			ok = strings.Contains(s.GetString(tup, p.Col), p.Str)
		}
		if ok == p.Not {
			return false
		}
	}
	return true
}

// KeyOf is the probe key the fields declare, read from tup of schema s.
func KeyOf(s *storage.Schema, key []exec.KeyField, tup []byte) uint64 {
	var k uint64
	for _, f := range key {
		v := intAt(s, tup, f.Col)
		if f.Mod > 0 {
			v = v * intAt(s, tup, f.MulCol) % f.Mod
		}
		k |= uint64(v) << f.Shift
	}
	return k
}

func intAt(s *storage.Schema, tup []byte, col int) int64 {
	if s.Columns[col].Type == storage.Int32 {
		return int64(s.GetInt32(tup, col))
	}
	return s.GetInt64(tup, col)
}

// Summand is what Sum aggregate a adds for driver tuple tup of schema s.
func Summand(s *storage.Schema, a exec.AggSpec, tup []byte) float64 {
	if s.Columns[a.Col].Type == storage.Float64 {
		return s.GetFloat64(tup, a.Col)
	}
	return float64(intAt(s, tup, a.Col))
}
