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

// AggSpec is one output aggregate of a query: Count counts the
// surviving row combinations; Sum adds up numeric column Col of their
// driver tuples (build it with SumCol).
type AggSpec struct {
	Kind AggKind
	Col  int
}

// Probe is one join step: a key computed from a row already in hand —
// the driver tuple or a row an earlier probe matched — is the primary
// key of the row to find in Table, and the PK index of Table finds it.
// Every part of it is declared, so the engine compiles it to kernels
// that run a vector at a time, and two probes of a batch that declare
// the same thing are one step (planner.go).
type Probe struct {
	// Table is the probed relation.
	Table storage.TableID
	// From names the row the key is read from: -1 the driver tuple, k
	// the row probe k (an earlier probe of the same query) matched.
	From int
	// Key is the primary key of the probed row, as Table's key function
	// (the primary's, which keys the replica's PK index) packs it: its
	// fields, integer columns of the From row shifted left, ORed
	// together (KeyCol, MulMod). At most MaxKeyFields fields.
	Key []KeyField
	// Where filters the matched row: an AND-list compiled against the
	// probed table's schema. It is never pushed down to synopses. The
	// engine decides per batch whether to evaluate it on each match or
	// once per row of the table (the verdicts kept as a bitmap the
	// matches index), so it may run on rows no driver tuple reaches.
	Where []Pred
}

// Query is one analytical query: scan a driver table, filter, run a
// chain of join probes, and aggregate the surviving combinations. Every
// part of it is a declaration (pred.go), compiled per batch against the
// snapshot's schemas; a declaration that does not fit its schema fails
// the query's Result.Err, and the rest of the batch runs.
type Query struct {
	// Name labels the query in reports (e.g. "Q5").
	Name string
	// Driver is the scanned fact table.
	Driver storage.TableID
	// Where is the driver filter: an AND-list of conjuncts (pred.go)
	// compiled into vector kernels; its numeric conjuncts are also pushed
	// down to the partitions' per-block zone maps, letting the morsel
	// dispatcher skip slot blocks that provably cannot satisfy it.
	Where []Pred
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
		e.scanPass(t, &scanGroup{plans: plans}, scanNS, mergeNS)
	}
}

// gacc accumulates one group of one query: its row count and its
// aggregate lanes in AggSpec order.
type gacc struct {
	rows int64
	vals []float64
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

	// Per morsel: active holds the per-query block verdicts.
	active []bool

	// Per vector: slots are the tuples (slot numbers in the morsel's
	// partition); live[qi] marks those query qi still wants; rids[ord]
	// holds, for root step ord, the id plus one of the row each tuple
	// matched (stale where no user of the step wanted the tuple).
	slots [vecSize]int32
	live  []vmask
	rids  [][]uint32
	// Scratch of the kernels: sel/at a compacted slot vector and where
	// its entries sit in slots, keys, buf and mul column and key
	// vectors, found the row ids of a compacted lookup, sums[ai] and
	// gkeys[gi] the summands and group keys of the survivors.
	sel   [vecSize]int32
	at    [vecSize]int32
	keys  [vecSize]uint64
	buf   [vecSize]uint64
	mul   [vecSize]uint64
	found [vecSize]uint32
	sums  [][vecSize]float64
	gkeys [MaxGroupCols][vecSize]int64

	// Per tuple, in the walk: chain[pi] is the id plus one of the row
	// matched at probe pi, joined the rows asked for (qplan.needRow; nil
	// elsewhere), hit the slot a per-hit filter runs on.
	chain  []uint32
	joined [][]byte
	hit    [1]int32

	// Stats, summed into the engine counters at merge.
	blocksScanned, blocksSkipped, tuplesPruned int64
	// probeLookups counts root-step lookups and predEvals the probe
	// filters evaluated on a hit.
	probeLookups, predEvals int64
}

func (w *passWorker) init() {
	sg := w.sg
	nq := len(sg.plans)
	w.vals = make([][]float64, nq)
	w.rows = make([]int64, nq)
	nprobes, naggs := 0, 0
	for qi, p := range sg.plans {
		w.vals[qi] = make([]float64, len(p.q.Aggs))
		nprobes = max(nprobes, len(p.q.Probes))
		naggs = max(naggs, len(p.q.Aggs))
	}
	w.sums = make([][vecSize]float64, naggs)
	w.groups = make([]map[groupKey]*gacc, nq)
	w.active = make([]bool, nq)
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
// skipped whole, and its live tuples count as pruned. The tuples of
// every other morsel are taken a vector at a time through the pass's
// step forest (passWorker.vector): per-query driver predicates, the
// root steps' lookups with each query's folded bitmaps, and per query
// the walk, the column reads of summands and group keys, and
// accumulation into its scalar lanes or its group map. Per-worker
// partials merge at the end; scan and merge wall times accumulate into
// scanNS/mergeNS.
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
	var bScan, bSkip, tPrune, lookups, predEvals int64
	for wi := range workers {
		w := &workers[wi]
		lookups += w.probeLookups
		predEvals += w.predEvals
		bScan += w.blocksScanned
		bSkip += w.blocksSkipped
		tPrune += w.tuplesPruned
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
		e.stats.ExecProbeLookups.Add(uint64(lookups))
		e.stats.ExecProbePredEvals.Add(uint64(predEvals))
	}
	if mergeNS != nil {
		*mergeNS += int64(time.Since(t1))
	}
}

// morsel asks the block synopses for each query's verdict on the
// morsel, skips it when every query's is negative, and otherwise runs
// its live tuples through vector.
func (w *passWorker) morsel(m morsel) {
	any := false
	for qi, p := range w.sg.plans {
		a := len(p.ranges) == 0 || m.part.RangeMayMatch(m.lo, m.hi, p.ranges)
		w.active[qi] = a
		any = any || a
	}
	if !any {
		w.blocksSkipped++
		w.tuplesPruned += int64(m.part.LiveInRange(m.lo, m.hi))
		return
	}
	w.blocksScanned++
	for from := m.lo; from < m.hi; {
		var n int
		n, from = m.part.LiveSlots(m.hi, from, w.slots[:])
		if n > 0 {
			w.vector(m, n)
		}
	}
}

// vector runs the first n tuples of w.slots, all of morsel m, through
// the pass, a stage at a time, each stage a kernel over the vector.
func (w *passWorker) vector(m morsel, n int) {
	sg, part := w.sg, m.part
	slots := w.slots[:n]

	// Driver predicates: each query's kernels decide which tuples it
	// wants.
	for qi, p := range sg.plans {
		lv := &w.live[qi]
		if !w.active[qi] {
			*lv = vmask{}
			continue
		}
		*lv = firstN(n)
		p.where.filter(part, slots, lv, w.buf[:])
	}

	// Root steps, in forest order: the keys of the tuples some query
	// holding the step still wants, computed a column at a time, then
	// one call-free lookup loop over them (FindPKs) — independent loads
	// the memory system overlaps — then each such query keeps the tuples
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
		if cnt == n {
			st.key.vector(part, slots, w.keys[:], w.buf[:], w.mul[:])
			st.src.t.FindPKs(w.keys[:n], st.src.base, rids)
		} else {
			sel := w.compact(slots, &need)
			st.key.vector(part, sel, w.keys[:], w.buf[:], w.mul[:])
			found := w.found[:cnt]
			st.src.t.FindPKs(w.keys[:cnt], st.src.base, found)
			for j, i := range w.at[:cnt] {
				rids[i] = found[j]
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

	for qi, p := range sg.plans {
		w.aggregate(qi, p, part)
	}
}

// compact gathers the slots of the tuples marked in m into w.sel, and
// where each sits in slots into w.at; it returns the compacted vector.
func (w *passWorker) compact(slots []int32, m *vmask) []int32 {
	k := 0
	for wd, word := range m {
		for ; word != 0; word &= word - 1 {
			i := wd<<6 + bits.TrailingZeros64(word)
			w.sel[k], w.at[k] = slots[i], int32(i)
			k++
		}
	}
	return w.sel[:k]
}

// aggregate finishes query qi's survivors of the vector: it walks them
// (if the plan has anything left to resolve per tuple), reads their
// group keys and summands a column at a time over the compacted
// survivors, and accumulates into the query's lanes or its group map.
func (w *passWorker) aggregate(qi int, p *qplan, part *olap.Partition) {
	lv := &w.live[qi]
	k := 0
	for wd, word := range lv {
		for ; word != 0; word &= word - 1 {
			i := wd<<6 + bits.TrailingZeros64(word)
			if p.walk && !w.walk(p, i) {
				continue
			}
			for gi, g := range p.groups {
				if g.from >= 0 {
					w.gkeys[gi][k] = g.col.ord(w.joined[g.from])
				}
			}
			w.sel[k] = w.slots[i]
			k++
		}
	}
	if k == 0 {
		return
	}
	sel := w.sel[:k]
	for gi, g := range p.groups {
		if g.from == -1 {
			v := w.buf[:k]
			part.ReadCol(sel, g.col.off, g.col.size, v)
			g.col.ords(v)
			for j, x := range v {
				w.gkeys[gi][j] = int64(x)
			}
		}
	}
	for ai, a := range p.q.Aggs {
		out := w.sums[ai][:k]
		if a.Kind == Count {
			for j := range out {
				out[j] = 1
			}
			continue
		}
		c, v := p.sums[ai], w.buf[:k]
		part.ReadCol(sel, c.off, c.size, v)
		c.floats(v, out)
	}
	if len(p.groups) == 0 {
		w.rows[qi] += int64(k)
		for ai := range p.q.Aggs {
			for _, v := range w.sums[ai][:k] {
				w.vals[qi][ai] += v
			}
		}
		return
	}
	g := w.groups[qi]
	if g == nil {
		g = make(map[groupKey]*gacc)
		w.groups[qi] = g
	}
	for j := 0; j < k; j++ {
		var key groupKey
		for gi := range p.groups {
			key[gi] = w.gkeys[gi][j]
		}
		acc := g[key]
		if acc == nil {
			acc = &gacc{vals: make([]float64, len(p.q.Aggs))}
			g[key] = acc
		}
		acc.rows++
		for ai := range acc.vals {
			acc.vals[ai] += w.sums[ai][j]
		}
	}
}

// walk finishes tuple i of the vector for plan p: in chain order it
// recovers each probe's matched row id — a root step's from the vector,
// a linked step's through the links — materializes the rows the plan
// asked for into w.joined, and applies the filters too large to keep as
// bitmaps. It reports whether the tuple survives.
func (w *passWorker) walk(p *qplan, i int) bool {
	w.joined = w.joined[:0]
	for pi, st := range p.steps {
		var rid uint32
		if st.kind == rootStep {
			rid = w.rids[st.ord][i]
		} else {
			rid = st.link.to[w.chain[p.q.Probes[pi].From]-1]
		}
		w.chain[pi] = rid
		var row []byte
		if p.needRow[pi] || p.perHit[pi] {
			part, slot := st.src.locate(rid - 1)
			row, w.hit[0] = part.Tuple(slot), slot
			if p.perHit[pi] {
				w.predEvals++
				m := firstN(1)
				if p.lookups[pi].where.filter(part, w.hit[:], &m, w.buf[:]); m[0] == 0 {
					return false
				}
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
		arity := len(p.groups)
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
