// Package exec is BatchDB's shared-execution analytical query engine
// (paper §5 "Query execution").
//
// The OLAP scheduler hands it one batch of queries at a time; because
// the whole batch runs on one snapshot with no concurrent updates, the
// engine can share work aggressively, in the spirit of shared scans
// [48, 49, 59, 61] and shared joins (MQJoin [36], SharedDB [19]):
//
//   - Shared scans: each driver table is scanned once per batch; every
//     tuple is offered to all queries driving off that table, so memory
//     bandwidth is paid once regardless of batch size.
//   - Shared joins: every join is a primary-key equi-join, and every
//     replica table keeps a PK index keyed like the primary's rows
//     (olap.Replica.CreateTable), so the index is the join's build side:
//     always current, never rebuilt, shared by every query of the
//     batch. A probe is one lookup in the flat index plus the tuple it
//     locates. Probes with the same key read from the same row are
//     made once per batch (planner.go), and what is derived from a
//     table's rows is cached across batches for as long as its data
//     version holds (static dimensions like nation or item).
//
// Scans are morsel-driven: each partition's slot space is cut into
// fixed-size ranges (MorselTuples) that workers pull off an atomic
// cursor, so scan parallelism is bounded by the engine's worker count
// rather than by partition count or skew.
//
// Per paper §8.1 the query model is scan + equi-join + aggregate, which
// covers the modified CH-benCHmark query set in Appendix A.
package exec

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"batchdb/internal/obs"
	"batchdb/internal/olap"
	"batchdb/internal/storage"
)

// AggKind selects an aggregate function.
type AggKind uint8

// Supported aggregates (the paper's query set uses SUM and COUNT).
const (
	Sum AggKind = iota
	Count
)

// AggSpec is one output aggregate of a query. For Sum, Value extracts
// the summand from the matched row combination; for Count, Value is
// ignored. SumCol builds the declarative form — a driver-column
// summand the engine compiles to a typed kernel and, when a whole
// morsel qualifies, computes directly on the encoded column blocks.
type AggSpec struct {
	Kind AggKind
	// Value receives the driver tuple and the tuples joined so far (in
	// probe order).
	Value func(driver []byte, joined [][]byte) float64
	// col, colSet carry the declarative driver-column summand installed
	// by SumCol; the zero value (plain struct-literal construction)
	// keeps the closure path.
	col    int
	colSet bool
}

// Probe is one join step: the driver row (plus previously joined rows)
// produces the primary key of the row it must find in Table.
type Probe struct {
	// Table is the probed relation.
	Table storage.TableID
	// ProbeKey computes, from the driver tuple and the previously joined
	// tuples, the primary key of the probed row: the value Table's key
	// function (the primary's, which keys the replica's PK index) returns
	// for it. The engine looks it up in the table's PK index, and the
	// single-system baseline reads the primary's row under it.
	ProbeKey func(driver []byte, joined [][]byte) uint64
	// KeyID and From declare what ProbeKey reads, so the batch planner
	// can run the probe as a shared step (planner.go) instead of once per
	// query and tuple. A non-empty KeyID names the key extractor; From
	// says where it reads: -1 = the driver tuple only, k = joined[k]
	// only, k an earlier probe of the same query. It is a promise: two
	// probes with equal (Table, KeyID) whose From name the same row
	// compute the same key from it, and ProbeKey touches nothing else —
	// it is called with a nil driver and only joined[From] set when the
	// engine resolves the step once per parent row. ProbeKey stays the
	// reference semantics (it is all the single-system baseline
	// evaluates). The zero KeyID declares nothing: the probe runs per
	// surviving tuple of its query.
	KeyID string
	From  int
	// Where declaratively filters the joined tuple: an AND-list compiled
	// to typed kernels against the probed table's schema. Where is never
	// pushed down to synopses — it only replaces closure dispatch with
	// typed kernels.
	Where []Pred
	// Pred is the residual filter for anything Where cannot express;
	// ANDed with Where, nil accepts all.
	//
	// A probe filter (Where and Pred alike) must be a pure function of
	// the probed tuple it is handed: no state, no dependence on the
	// driver tuple or on call order. The engine decides per batch whether
	// to call it on each match or once per row of the table (the
	// verdicts kept as a bitmap the matches index), so it may run on
	// rows no driver tuple ever reaches, and a different number of times
	// from one batch to the next.
	Pred func(tup []byte) bool
}

// Query is one analytical query: scan a driver table, filter, run a
// chain of join probes, and aggregate the surviving combinations.
type Query struct {
	// Name labels the query in reports (e.g. "Q5").
	Name string
	// Driver is the scanned fact table.
	Driver storage.TableID
	// Where is the declarative driver filter: an AND-list of column
	// comparisons (pred.go) compiled into typed kernels and pushed down
	// to the partitions' per-block zone maps, letting the morsel
	// dispatcher skip slot blocks that provably cannot satisfy it.
	Where []Pred
	// DriverPred is the residual driver filter for predicates Where
	// cannot express (string matching, cross-column arithmetic). It is
	// ANDed with Where and never participates in pruning; nil accepts
	// all.
	DriverPred func(tup []byte) bool
	// Probes are applied in order; a missed probe drops the row.
	Probes []Probe
	// Aggs produce the output values.
	Aggs []AggSpec
	// GroupBy, when non-empty, partitions the surviving combinations by
	// the named columns (at most MaxGroupCols); the aggregates are then
	// reported per group in Result.Groups, with Result.Values/Rows
	// holding the totals across groups.
	GroupBy []GroupCol
}

// Result carries one query's aggregate outputs, in AggSpec order.
type Result struct {
	Query  *Query
	Values []float64
	// Rows is the number of row combinations that survived all
	// predicates and probes.
	Rows int64
	// Groups holds the per-group aggregates when the query has a
	// GroupBy, sorted lexicographically by key; Values and Rows above
	// then hold the totals across all groups.
	Groups []GroupResult
	Err    error

	// SnapshotVID is the snapshot version the batch executed on.
	SnapshotVID uint64
	// StalenessNanos is the wall-clock age of that snapshot at batch
	// start (from the scheduler's freshness tracker, when attached via
	// AttachFreshness) — how far behind the primary this answer may be.
	StalenessNanos int64
	// Degraded marks an answer computed while the replica's feed from
	// the primary was down: the snapshot cannot advance until resync, so
	// the staleness above keeps growing. Stamped by the replica node,
	// not the engine (the engine doesn't know about transports).
	Degraded bool
}

// SnapshotMeta reports the answer's snapshot provenance. The fleet
// router discovers it through a structural interface, so exec stays
// free of router imports.
func (r Result) SnapshotMeta() (vid uint64, stalenessNanos int64, degraded bool) {
	return r.SnapshotVID, r.StalenessNanos, r.Degraded
}

// DefaultMorselTuples is the scan-range granularity when the engine's
// MorselTuples is unset: large enough that cursor traffic is noise,
// small enough that hundreds of morsels exist per partition for load
// balancing (morsel-driven execution à la HyPer).
const DefaultMorselTuples = 16384

// Engine executes query batches against an OLAP replica.
type Engine struct {
	replica *olap.Replica
	// pool runs the scans (paper: the OLAP replica's dedicated cores).
	// It is the replica's own pool, so apply rounds and batches share one
	// budget.
	pool *olap.Pool

	// MorselTuples is the number of tuple slots per scan morsel; <= 0
	// selects DefaultMorselTuples. Set before the first RunBatch.
	MorselTuples int

	// stats, when attached, receives per-batch phase timings.
	stats *olap.SchedulerStats

	// fresh, when attached, stamps each Result with the snapshot's
	// wall-clock staleness.
	fresh *obs.Freshness

	// cache holds the link arrays (by linkID, planner.go), which outlive
	// a batch: each is revalidated against the data versions of the two
	// tables it was made from.
	mu    sync.Mutex
	cache map[linkID]*cacheEntry
}

// cacheEntry is the check-or-claim cache slot for one link array, valid
// for the data versions v1, v2 of the tables it was made from. The done
// channel is the in-flight marker: installing the entry under mu claims
// the construction, and every other caller that finds a matching entry
// blocks on done instead of redundantly constructing (sync.Once-style,
// but keyed and version-checked).
type cacheEntry struct {
	v1, v2 uint64
	done   chan struct{}
	val    *linkArray
}

// cached returns the link array cached under key for versions (v1, v2),
// constructing it if the cache misses. Check and claim are one critical
// section: the first caller to observe a stale (or absent) entry
// installs a fresh one with an open done channel and constructs outside
// the lock; every concurrent caller for the same key and versions blocks
// on done and shares the result, so an array is made at most once per
// data version no matter how many batches race.
func (e *Engine) cached(key linkID, v1, v2 uint64, construct func() *linkArray) *linkArray {
	e.mu.Lock()
	if ce := e.cache[key]; ce != nil && ce.v1 == v1 && ce.v2 == v2 {
		e.mu.Unlock()
		<-ce.done
		return ce.val
	}
	ce := &cacheEntry{v1: v1, v2: v2, done: make(chan struct{})}
	e.cache[key] = ce
	e.mu.Unlock()
	ce.val = construct()
	close(ce.done)
	return ce.val
}

// NewEngine creates an executor over replica with the given
// parallelism: it sizes the replica's pool to workers and runs its scans
// on that pool, so apply rounds and batches share one budget.
func NewEngine(replica *olap.Replica, workers int) *Engine {
	replica.SetApplyWorkers(workers)
	return &Engine{
		replica: replica,
		pool:    replica.Pool(),
		cache:   make(map[linkID]*cacheEntry),
	}
}

// NewScheduler builds the analytical stack over rep: an executor of
// workers sharing the replica's pool, and the batch dispatcher that
// syncs with primary and runs its batches on that executor. The executor
// records its phase timings into the dispatcher's stats and stamps every
// Result with the staleness the dispatcher's freshness tracker reports.
// The caller registers the dispatcher's metrics under its own labels,
// then starts it.
func NewScheduler(rep *olap.Replica, primary olap.Primary, workers int) *olap.Scheduler[*Query, Result] {
	e := NewEngine(rep, workers)
	s := olap.NewScheduler(rep, primary, e.RunBatch)
	e.AttachStats(s.Stats())
	e.AttachFreshness(s.Freshness())
	return s
}

// AttachStats points the engine at a scheduler's stats block so
// RunBatch records its per-phase timings (source preparation, scan,
// merge) there.
func (e *Engine) AttachStats(st *olap.SchedulerStats) { e.stats = st }

// AttachFreshness points the engine at the scheduler's freshness
// tracker so every Result is stamped with the wall-clock staleness of
// the snapshot it was computed on. Set before the first RunBatch.
func (e *Engine) AttachFreshness(f *obs.Freshness) { e.fresh = f }

// morselTuples is the scan-range granularity in effect.
func (e *Engine) morselTuples() int {
	if e.MorselTuples > 0 {
		return e.MorselTuples
	}
	return DefaultMorselTuples
}

// vecSize is how many tuples a scan handles at a time: a morsel is taken
// as vectors of up to vecSize live slots (olap.Partition.LiveSlots), and
// every stage — predicates, each root step's lookups, bit tests,
// aggregation — is a loop over the vector, so the loads of one stage are
// independent of each other and overlap in the memory system instead of
// forming one dependent chain per tuple.
const vecSize = 1024

// morsel is one unit of scan work: a slot range of one partition.
type morsel struct {
	part   *olap.Partition
	lo, hi int
}

// morsels cuts the partitions' slot spaces into MorselTuples-sized
// ranges. Skewed layouts (one huge partition) still yield many morsels,
// so all workers stay busy regardless of how tuples are distributed.
func (e *Engine) morsels(parts []*olap.Partition) []morsel {
	mt := e.morselTuples()
	var ms []morsel
	for _, p := range parts {
		n := p.Slots()
		for lo := 0; lo < n; lo += mt {
			hi := lo + mt
			if hi > n {
				hi = n
			}
			ms = append(ms, morsel{p, lo, hi})
		}
	}
	return ms
}

// RunBatch executes all queries as one shared pass per driver table and
// returns results in query order. It matches olap.RunBatchFunc: snap is
// the scheduler's floor VID. The whole batch reads through one pinned
// snapshot — at least as fresh as the floor — so execution is isolated
// from any apply round the scheduler runs concurrently.
func (e *Engine) RunBatch(queries []*Query, snap uint64) []Result {
	sv := e.replica.PinSnapshot()
	defer sv.Unpin()
	vid := sv.VID()
	if vid < snap {
		vid = snap // static primaries report a floor above the replica's VID
	}
	results := make([]Result, len(queries))
	var stale int64
	if e.fresh != nil {
		stale = e.fresh.StalenessNanos()
	}
	for i, q := range queries {
		results[i].Query = q
		results[i].Values = make([]float64, len(q.Aggs))
		results[i].SnapshotVID = vid
		results[i].StalenessNanos = stale
	}

	// Stage 1: resolve every probed table to its source.
	t0 := time.Now()
	prepared := e.prepareSources(sv, queries)
	if e.stats != nil {
		e.stats.ExecBuildPrepare.RecordSince(t0)
	}

	// Stage 2: group queries by driver table and share scans.
	var scanNS, mergeNS int64
	byDriver := make(map[storage.TableID][]int)
	for i, q := range queries {
		byDriver[q.Driver] = append(byDriver[q.Driver], i)
	}
	for _, idxs := range byDriver {
		qs := make([]*Query, len(idxs))
		rs := make([]*Result, len(idxs))
		for j, i := range idxs {
			qs[j] = queries[i]
			rs[j] = &results[i]
		}
		e.scanDriver(sv, qs, rs, prepared, &scanNS, &mergeNS)
	}
	if e.stats != nil {
		e.stats.ExecScan.Record(scanNS)
		e.stats.ExecMerge.Record(mergeNS)
	}
	return results
}

// prepareSources resolves every table the batch probes to its source:
// the pinned view of the table, probed through its PK index, which the
// apply rounds keep current — so per-batch setup costs nothing that
// grows with a table's size while updates stream in. A probe into a
// table the snapshot lacks gets no source; compilePlan fails the
// queries that make it and the rest of the batch runs.
func (e *Engine) prepareSources(sv *olap.Snapshot, queries []*Query) map[storage.TableID]*source {
	srcs := make(map[storage.TableID]*source)
	for _, q := range queries {
		for _, p := range q.Probes {
			if t := sv.Table(p.Table); t != nil && srcs[p.Table] == nil {
				srcs[p.Table] = newSource(t)
			}
		}
	}
	return srcs
}

// scanDriver plans and executes one driver table's share of the batch:
// every query is compiled to its plan (plan.go) and the plans run in one
// morsel-driven shared scan pass (scanPass) over the step forest the
// batch planner compiles (planner.go). A compile error fails only that
// query; the rest of the batch proceeds without it.
func (e *Engine) scanDriver(sv *olap.Snapshot, qs []*Query, rs []*Result, prepared map[storage.TableID]*source, scanNS, mergeNS *int64) {
	t := sv.Table(qs[0].Driver)
	if t == nil {
		err := fmt.Errorf("exec: unknown driver table %d", qs[0].Driver)
		for _, r := range rs {
			r.Err = err
		}
		return
	}
	plans := make([]*qplan, 0, len(qs))
	live := t.Live()
	for i, q := range qs {
		if p := e.compilePlan(sv, t, live, q, rs[i], prepared); p != nil {
			plans = append(plans, p)
		}
	}
	if len(plans) > 0 {
		e.scanPass(t, newScanGroup(plans), scanNS, mergeNS)
	}
}

// gacc accumulates one group of one query: its row count and its
// aggregate lanes in AggSpec order.
type gacc struct {
	rows int64
	vals []float64
}

// allSet reports whether the first n bits of sel are all ones.
func allSet(sel []uint64, n int) bool {
	full := n >> 6
	for w := 0; w < full; w++ {
		if sel[w] != ^uint64(0) {
			return false
		}
	}
	if tail := uint(n & 63); tail != 0 {
		m := ^uint64(0) >> (64 - tail)
		if sel[full]&m != m {
			return false
		}
	}
	return true
}

// vmask is one bit per tuple of a vector: bit i ↔ the vector's slot i.
type vmask [vecSize / 64]uint64

// firstN returns the mask of a vector's first n tuples.
func firstN(n int) (m vmask) {
	for w := 0; w < n>>6; w++ {
		m[w] = ^uint64(0)
	}
	if tail := uint(n) & 63; tail != 0 {
		m[n>>6] = ^uint64(0) >> (64 - tail)
	}
	return m
}

func (m *vmask) or(o *vmask) {
	for w := range m {
		m[w] |= o[w]
	}
}

func (m *vmask) count() (n int) {
	for _, word := range m {
		n += bits.OnesCount64(word)
	}
	return n
}

// passWorker is one worker's state for one scan pass: its partial
// aggregates, the verdicts of the morsel it holds, and the vectors of
// the tuples it is working on. Everything per query is indexed like
// scanGroup.plans.
type passWorker struct {
	sg *scanGroup

	vals [][]float64
	rows []int64
	// groups[qi] is query qi's group map (nil until first hit, and
	// always nil for ungrouped queries).
	groups []map[groupKey]*gacc
	// aggScratch holds the aggregate kernels' block sums for one query
	// until all of them are served.
	aggScratch []float64

	// Per morsel: active holds the per-query block verdicts; qvec marks
	// queries whose Where was evaluated on the encoded blocks (sel[qi]
	// then holds the exact bitmap); aggDone marks queries the aggregate
	// kernels already answered.
	active, qvec, aggDone []bool
	sel                   [][]uint64
	union                 []uint64

	// Per vector: slots are the tuples (slot numbers in the morsel's
	// partition); live[qi] marks those query qi still wants; rids[ord]
	// holds, for root step ord, the id plus one of the row each tuple
	// matched (stale where no user of the step wanted the tuple).
	slots [vecSize]int32
	keys  [vecSize]uint64
	live  []vmask
	rids  [][]uint32

	// Per tuple, in the walk: chain[pi] is the id plus one of the row
	// matched at probe pi, joined the rows asked for (qplan.needRow; nil
	// elsewhere).
	chain  []uint32
	joined [][]byte

	// Stats, summed into the engine counters at merge. pendingLive
	// counts live tuples in scanned morsels and offered the tuples that
	// reached the vectors; their difference is what bitmaps pruned.
	blocksScanned, blocksSkipped, blocksVectorized, blocksAggVec int64
	tuplesPruned, pendingLive, offered                           int64
	// probeLookups counts root-step and tail-step lookups and predEvals
	// the probe filters evaluated on a hit.
	probeLookups, predEvals int64
}

func (w *passWorker) init() {
	sg := w.sg
	nq := len(sg.plans)
	w.vals = make([][]float64, nq)
	w.rows = make([]int64, nq)
	nprobes := 0
	for qi, p := range sg.plans {
		w.vals[qi] = make([]float64, len(p.q.Aggs))
		nprobes = max(nprobes, len(p.q.Probes))
	}
	w.groups = make([]map[groupKey]*gacc, nq)
	w.aggScratch = make([]float64, sg.naggsMax)
	w.active = make([]bool, nq)
	w.qvec = make([]bool, nq)
	w.aggDone = make([]bool, nq)
	w.live = make([]vmask, nq)
	w.rids = make([][]uint32, len(sg.roots))
	for ord := range w.rids {
		w.rids[ord] = make([]uint32, vecSize)
	}
	w.chain = make([]uint32, nprobes)
	w.joined = make([][]byte, 0, nprobes)
}

// scanPass performs the one shared morsel-driven scan over the driver
// table for the scan group's queries. Per morsel, each query gets a
// zone-map verdict; a morsel every query's AND-list disproves is
// skipped whole. Queries the encoded blocks can serve exactly get
// selection bitmaps (FilterRange), and pure driver-side aggregations
// whose bitmap covers every tuple are answered outright by the
// encoded-block aggregate kernels without materializing a row. The
// surviving tuples are taken a vector at a time through the pass's step
// forest (passWorker.vector): per-query driver predicates, the root
// steps' lookups with each query's folded bitmaps, and per query the
// walk, summand extraction and accumulation into its scalar lanes or
// its group map. Per-worker partials merge at the end; scan and merge
// wall times accumulate into scanNS/mergeNS.
//
// Pruned-tuple accounting is exact: every scan pass attributes each
// live tuple to exactly one of offered-to-the-vectors, answered by the
// aggregate kernels, or pruned — so ExecTuplesPruned ≡ live − offered
// − answered, never double-counting a tuple that both a
// zone-map verdict and an empty FilterRange bitmap rejected.
func (e *Engine) scanPass(t *olap.Table, sg *scanGroup, scanNS, mergeNS *int64) {
	t0 := time.Now()
	e.compileForest(sg)
	ms := e.morsels(t.Partitions)
	workers := make([]passWorker, max(min(e.pool.Workers(), len(ms)), 1))
	e.pool.ForEach(len(ms), func(worker, i int) {
		w := &workers[worker]
		if w.sg == nil {
			*w = passWorker{sg: sg}
			w.init()
		}
		w.morsel(ms[i])
	})
	if scanNS != nil {
		*scanNS += int64(time.Since(t0))
	}
	t1 := time.Now()
	var bScan, bSkip, tPrune, bVec, bAggVec, lookups, predEvals int64
	for wi := range workers {
		w := &workers[wi]
		lookups += w.probeLookups
		predEvals += w.predEvals
		bScan += w.blocksScanned
		bSkip += w.blocksSkipped
		bVec += w.blocksVectorized
		bAggVec += w.blocksAggVec
		tPrune += w.tuplesPruned + w.pendingLive - w.offered
		if w.sg == nil {
			continue
		}
		for qi, p := range sg.plans {
			p.r.Rows += w.rows[qi]
			for ai := range w.vals[qi] {
				p.r.Values[ai] += w.vals[qi][ai]
			}
		}
	}
	mergeGroups(sg, workers)
	if e.stats != nil {
		e.stats.ExecBlocksScanned.Add(uint64(bScan))
		e.stats.ExecBlocksSkipped.Add(uint64(bSkip))
		e.stats.ExecTuplesPruned.Add(uint64(tPrune))
		e.stats.ExecBlocksVectorized.Add(uint64(bVec))
		e.stats.ExecBlocksAggVectorized.Add(uint64(bAggVec))
		e.stats.ExecProbeLookups.Add(uint64(lookups))
		e.stats.ExecProbePredEvals.Add(uint64(predEvals))
	}
	if mergeNS != nil {
		*mergeNS += int64(time.Since(t1))
	}
}

// morsel settles what the block synopses and the encoded vectors can
// settle for the morsel — verdicts, selection bitmaps, whole-morsel
// aggregates — and runs the tuples that remain through vector.
func (w *passWorker) morsel(m morsel) {
	sg := w.sg
	// Block verdicts: offer this morsel's tuples only to queries whose
	// pushed-down ranges the block synopses cannot disprove.
	any := false
	for qi, p := range sg.plans {
		a := true
		if len(p.ranges) > 0 {
			a = m.part.RangeMayMatch(m.lo, m.hi, p.ranges)
		}
		w.active[qi] = a
		w.aggDone[qi] = false
		w.qvec[qi] = false
		any = any || a
	}
	if !any {
		w.blocksSkipped++
		w.tuplesPruned += int64(m.part.LiveInRange(m.lo, m.hi))
		return
	}
	w.blocksScanned++
	words := (m.hi - m.lo + 63) >> 6
	if (sg.anyRanges || sg.anyVecAgg) && len(w.union) < words {
		w.union = make([]uint64, words)
		w.sel = make([][]uint64, len(sg.plans))
		for qi := range w.sel {
			w.sel[qi] = make([]uint64, words)
		}
	}
	// Vectorized predicates: translate each active query's pushed-down
	// ranges into an exact per-slot bitmap on the encoded vectors.
	// Queries the encoded path cannot serve keep their kernels.
	if sg.anyRanges {
		for qi, p := range sg.plans {
			w.qvec[qi] = w.active[qi] && len(p.ranges) > 0 &&
				m.part.FilterRange(m.lo, m.hi, p.ranges, w.sel[qi][:words])
		}
	}
	// Aggregate kernels: a pure driver-side aggregation whose selection
	// covers every tuple of the morsel (no Where, or an all-set bitmap)
	// is answered from the encoded blocks — counts from the live
	// counters, sums from the packed runs — without materializing a
	// single row.
	if sg.anyVecAgg {
		for qi, p := range sg.plans {
			if !w.active[qi] || !p.vecAgg {
				continue
			}
			if len(p.ranges) > 0 && (!w.qvec[qi] || !allSet(w.sel[qi][:words], m.hi-m.lo)) {
				continue
			}
			ok := true
			for ai, col := range p.aggCol {
				if p.q.Aggs[ai].Kind != Sum {
					continue
				}
				s, _, served := m.part.SumLiveRange(m.lo, m.hi, col)
				if !served {
					ok = false
					break
				}
				w.aggScratch[ai] = s
			}
			if !ok {
				continue
			}
			live := int64(m.part.LiveInRange(m.lo, m.hi))
			w.rows[qi] += live
			for ai := range p.q.Aggs {
				if p.q.Aggs[ai].Kind == Sum {
					w.vals[qi][ai] += w.aggScratch[ai]
				} else {
					w.vals[qi][ai] += float64(live)
				}
			}
			w.aggDone[qi] = true
			w.blocksAggVec++
		}
		any = false
		for qi := range sg.plans {
			if w.active[qi] && !w.aggDone[qi] {
				any = true
				break
			}
		}
		if !any {
			// Every active query answered from the encoded blocks: the
			// morsel's tuples were consumed, not pruned.
			return
		}
	}
	// Union bitmap: when every remaining query has an exact bitmap,
	// materialize only the union of their survivors. An empty union
	// finishes the morsel — its live tuples count as pruned (each
	// attributed once, whatever combination of verdicts and bitmaps
	// rejected it).
	var sel []uint64
	if sg.anyRanges {
		allVec := true
		for qi := range sg.plans {
			if w.active[qi] && !w.aggDone[qi] && !w.qvec[qi] {
				allVec = false
				break
			}
		}
		if allVec {
			w.blocksVectorized++
			sel = w.union[:words]
			anyBit := uint64(0)
			for wd := range sel {
				sel[wd] = 0
				for qi := range sg.plans {
					if w.qvec[qi] && w.active[qi] && !w.aggDone[qi] {
						sel[wd] |= w.sel[qi][wd]
					}
				}
				anyBit |= sel[wd]
			}
			if anyBit == 0 {
				w.pendingLive += int64(m.part.LiveInRange(m.lo, m.hi))
				return
			}
		}
	}
	if sg.anyRanges {
		w.pendingLive += int64(m.part.LiveInRange(m.lo, m.hi))
	}
	for from := m.lo; from < m.hi; {
		var n int
		n, from = m.part.LiveSlots(m.lo, m.hi, sel, from, w.slots[:])
		if sg.anyRanges {
			w.offered += int64(n)
		}
		if n > 0 {
			w.vector(m, n)
		}
	}
}

// vector runs the first n tuples of w.slots, all of morsel m, through
// the pass, a stage at a time.
func (w *passWorker) vector(m morsel, n int) {
	sg, part := w.sg, m.part
	slots := w.slots[:n]

	// Driver predicates: each query's selection bitmap, typed kernel
	// and residual closure decide which tuples it wants.
	all := firstN(n)
	for qi, p := range sg.plans {
		lv := &w.live[qi]
		switch {
		case !w.active[qi] || w.aggDone[qi]:
			*lv = vmask{}
			continue
		case w.qvec[qi]:
			*lv = vmask{}
			sel := w.sel[qi]
			for i, slot := range slots {
				off := uint(int(slot) - m.lo)
				lv[i>>6] |= (sel[off>>6] >> (off & 63) & 1) << (uint(i) & 63)
			}
		case p.kernel != nil:
			*lv = vmask{}
			for i, slot := range slots {
				if p.kernel(part.Tuple(slot)) {
					lv[i>>6] |= 1 << (uint(i) & 63)
				}
			}
		default:
			*lv = all
		}
		if dp := p.q.DriverPred; dp != nil {
			for wd, word := range lv {
				for ; word != 0; word &= word - 1 {
					i := wd<<6 + bits.TrailingZeros64(word)
					if !dp(part.Tuple(slots[i])) {
						lv[wd] &^= 1 << (uint(i) & 63)
					}
				}
			}
		}
	}

	// Root steps, in forest order: one lookup per tuple that some query
	// holding the step still wants — a tight loop of independent key
	// computations and lookups — then each such query keeps the tuples
	// whose row its fold passes. A tuple every interested query has
	// dropped by the time a step runs is never looked up there.
	for _, st := range sg.roots {
		var need vmask
		for _, u := range st.users {
			need.or(&w.live[u.qi])
		}
		cnt := need.count()
		if cnt == 0 {
			continue
		}
		w.probeLookups += int64(cnt)
		rids := w.rids[st.ord][:n]
		src, key := st.src, st.key
		if cnt == n {
			// Keys first, lookups second: the lookup loop (FindPKs) makes no
			// call, so many of its loads are in flight at once.
			keys := w.keys[:n]
			for i, slot := range slots {
				keys[i] = key(part.Tuple(slot), nil)
			}
			src.t.FindPKs(keys, src.base, rids)
		} else {
			for wd, word := range need {
				for ; word != 0; word &= word - 1 {
					i := wd<<6 + bits.TrailingZeros64(word)
					rids[i] = src.find(key(part.Tuple(slots[i]), nil))
				}
			}
		}
		for _, u := range st.users {
			lv := &w.live[u.qi]
			for wd, word := range lv {
				for ; word != 0; word &= word - 1 {
					i := wd<<6 + bits.TrailingZeros64(word)
					if rid := rids[i]; rid == 0 || (u.fold != nil && !hasBit(u.fold, rid-1)) {
						lv[wd] &^= 1 << (uint(i) & 63)
					}
				}
			}
		}
	}

	// Queries: each walks the tuples that survive for it (if it has
	// anything left to resolve per tuple), extracts their summands and
	// group key, and accumulates.
	for qi, p := range sg.plans {
		for wd, word := range w.live[qi] {
			for ; word != 0; word &= word - 1 {
				i := wd<<6 + bits.TrailingZeros64(word)
				tup := part.Tuple(slots[i])
				if p.walk && !w.walk(p, i, tup) {
					continue
				}
				vals := w.vals[qi]
				if len(p.groupOf) == 0 {
					w.rows[qi]++
				} else {
					var key groupKey
					for gi, fn := range p.groupOf {
						key[gi] = fn(tup, w.joined)
					}
					g := w.groups[qi]
					if g == nil {
						g = make(map[groupKey]*gacc)
						w.groups[qi] = g
					}
					acc := g[key]
					if acc == nil {
						acc = &gacc{vals: make([]float64, len(p.q.Aggs))}
						g[key] = acc
					}
					acc.rows++
					vals = acc.vals
				}
				for ai, fn := range p.aggOf {
					if fn != nil {
						vals[ai] += fn(tup, w.joined)
					} else {
						vals[ai]++ // Count
					}
				}
			}
		}
	}
}

// walk finishes tuple i of the vector for plan p: in chain order it
// recovers each probe's matched row id — a root step's from the vector,
// a linked step's through the links, a tail step's by the lookup the
// scan has not made yet — materializes the rows the plan asked for into
// w.joined, and applies what is still per hit: tail steps' filters and
// filters too large to keep as bitmaps. It reports whether the tuple
// survives.
func (w *passWorker) walk(p *qplan, i int, tup []byte) bool {
	w.joined = w.joined[:0]
	for pi, st := range p.steps {
		var rid uint32
		switch st.kind {
		case rootStep:
			rid = w.rids[st.ord][i]
		case linkedStep:
			rid = st.link.to[w.chain[p.q.Probes[pi].From]-1]
		default:
			w.probeLookups++
			if rid = st.src.find(st.key(tup, w.joined)); rid == 0 {
				return false
			}
		}
		w.chain[pi] = rid
		var row []byte
		if p.needRow[pi] {
			row = st.src.row(rid - 1)
		}
		if p.perHit[pi] {
			if lk := &p.lookups[pi]; lk.bits == nil {
				w.predEvals++
				if !lk.pred(row) {
					return false
				}
			} else if !hasBit(lk.bits, rid-1) {
				return false
			}
		}
		w.joined = append(w.joined, row)
	}
	return true
}

// mergeGroups combines the workers' group maps of each grouped query
// and emits its Groups sorted by key, with its Values/Rows set to the
// totals.
func mergeGroups(sg *scanGroup, workers []passWorker) {
	for qi, p := range sg.plans {
		arity := len(p.groupOf)
		if arity == 0 {
			continue
		}
		merged := make(map[groupKey]*gacc)
		for wi := range workers {
			if workers[wi].groups == nil {
				continue
			}
			for key, acc := range workers[wi].groups[qi] {
				dst := merged[key]
				if dst == nil {
					merged[key] = acc
					continue
				}
				dst.rows += acc.rows
				for ai, v := range acc.vals {
					dst.vals[ai] += v
				}
			}
		}
		keys := make([]groupKey, 0, len(merged))
		for k := range merged {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b groupKey) int { return slices.Compare(a[:], b[:]) })
		for _, k := range keys {
			acc := merged[k]
			p.r.Groups = append(p.r.Groups, GroupResult{
				Key:    append([]int64(nil), k[:arity]...),
				Values: acc.vals,
				Rows:   acc.rows,
			})
			p.r.Rows += acc.rows
			for ai, v := range acc.vals {
				p.r.Values[ai] += v
			}
		}
	}
}
