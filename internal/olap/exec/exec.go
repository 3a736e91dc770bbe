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
//   - Shared join builds: hash-join build sides are keyed by
//     (table, build-key id) and built at most once per batch; all
//     queries probing the same table through the same key share the
//     build. Builds over tables whose data did not change since the
//     last batch (static dimensions like nation or item) are cached
//     across batches and revalidated by the table's data version.
//
// Scans — driver scans and build-side scans alike — are morsel-driven:
// each partition's slot space is cut into fixed-size ranges
// (MorselTuples) that workers pull off an atomic cursor, so scan
// parallelism is bounded by the engine's worker count rather than by
// partition count or skew. A build side is one flat open-addressed
// table cut into regions by key hash, so construction is lock-free and
// parallel in both its scan and its insert phase, and a probe is one
// array access plus the tuple it names.
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

// Probe is one hash-join step: the driver row (plus previously joined
// rows) produces a key that must find a match in the build table.
type Probe struct {
	// Table is the build-side relation.
	Table storage.TableID
	// BuildKeyID names the build key so independent queries can share
	// the build ("pk" for primary-key builds). Probes with equal
	// (Table, BuildKeyID) share one hash table per batch.
	BuildKeyID string
	// BuildKey extracts the join key from a build-side tuple. Must be
	// unique per tuple (primary-key joins; the CH query set satisfies
	// this).
	BuildKey func(tup []byte) uint64
	// ProbeKey computes the lookup key from the driver tuple and the
	// previously joined tuples.
	ProbeKey func(driver []byte, joined [][]byte) uint64
	// KeyID and From declare what ProbeKey reads, so the batch planner
	// can run the probe as a shared step (planner.go) instead of once per
	// query and tuple. A non-empty KeyID names the key extractor; From
	// says where it reads: -1 = the driver tuple only, k = joined[k]
	// only, k an earlier probe of the same query. It is a promise of the
	// ShareKey kind: two probes with equal (Table, BuildKeyID, KeyID)
	// whose From name the same row compute the same key from it, and
	// ProbeKey touches nothing else — it is called with a nil driver and
	// only joined[From] set when the engine resolves the step once per
	// parent row. ProbeKey stays the reference semantics (it is all the
	// single-system baseline evaluates). The zero KeyID declares nothing:
	// the probe runs per surviving tuple, shared only inside its cohort.
	KeyID string
	From  int
	// Where declaratively filters the joined tuple: an AND-list compiled
	// to typed kernels against the build table's schema. Where is never
	// pushed down to synopses — it only replaces closure dispatch with
	// typed kernels.
	Where []Pred
	// Pred is the residual filter for anything Where cannot express;
	// ANDed with Where, nil accepts all.
	//
	// A probe filter (Where and Pred alike) must be a pure function of
	// the build-side tuple it is handed: no state, no dependence on the
	// driver tuple or on call order. The engine decides per batch whether
	// to call it on each hash match or once per row of the build (the
	// verdicts kept as a bitmap the matches index), so it may run on
	// rows no driver tuple ever reaches, and a different number of times
	// from one batch to the next.
	Pred func(tup []byte) bool
}

// Query is one analytical query: scan a driver table, filter, run a
// chain of hash-join probes, and aggregate the surviving combinations.
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
	// ShareKey opts the query into batch-planner pipeline merging:
	// queries with equal non-empty ShareKeys promise that their
	// BuildKey/ProbeKey/aggregate closures are interchangeable (same
	// template, differing only in predicate constants, residual
	// filters, and group-by prefix depth), so the planner may run them
	// as one cohort that pays the probe chain and summand extraction
	// once per tuple. Empty (the default) never merges.
	ShareKey string
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

// hashMul is the Fibonacci-hashing multiplier used to spread build keys
// across shards (the same constant partitions RowIDs in olap).
const hashMul = 0x9E3779B97F4A7C15

// Engine executes query batches against an OLAP replica.
type Engine struct {
	replica *olap.Replica
	// pool runs the scans and builds (paper: the OLAP replica's
	// dedicated cores). Concurrent builds share its budget.
	pool *olap.Pool

	// MorselTuples is the number of tuple slots per scan morsel; <= 0
	// selects DefaultMorselTuples. Set before the first RunBatch.
	MorselTuples int

	// AdmitBudget bounds the estimated execution time of one batch for
	// the AdmitBatch admission hook; <= 0 (the default) admits
	// everything.
	AdmitBudget time.Duration

	// stats, when attached, receives per-batch phase timings.
	stats *olap.SchedulerStats

	// fresh, when attached, stamps each Result with the snapshot's
	// wall-clock staleness.
	fresh *obs.Freshness

	// cache holds what outlives a batch — hash builds (by buildID) and
	// link arrays (by linkID) — each revalidated against the data versions
	// of the tables it was made from.
	mu    sync.Mutex
	cache map[any]*cacheEntry
}

type buildID struct {
	table storage.TableID
	key   string
}

// build is one shared hash-join build side: a flat open-addressed table
// from join key to row ordinal (linear probing, load at most one half)
// and a copy of the build's tuples laid out by ordinal, so a probe is
// two dependent memory accesses — slot, tuple — with no slice header in
// between, and a cached build keeps no partition of an old table
// version alive. The table is cut into equal power-of-two regions picked
// by the hash's top bits — one region per construction shard, so each
// is filled by one worker without locks — and a probe run wraps inside
// its region. Ordinals are dense, which is what lets a probe filter be
// evaluated once per row into a bitmap (lookup.bits) instead of once
// per hit.
type build struct {
	ents []buildSlot
	// tuples holds row ord, of nrows, at [ord*tupleSize, (ord+1)*tupleSize).
	tuples    []byte
	tupleSize int
	nrows     int
	// region = h >> (64-rbits) (a shift by 64 when there is one region,
	// which Go defines to yield 0); home slot = (h << rbits) >> pshift,
	// inside the region's 1<<(64-pshift) slots.
	rbits, pshift uint8
}

// buildSlot is one slot of a build's table, 16 bytes: ref is the row
// ordinal plus one, 0 marking an empty slot.
type buildSlot struct {
	key uint64
	ref uint32
}

// find returns the ordinal of the row stored under key, plus one; 0 is a
// miss.
func (b *build) find(key uint64) uint32 {
	h := key * hashMul
	mask := uint64(1)<<(64-b.pshift) - 1
	region := b.ents[(h>>(64-b.rbits))<<(64-b.pshift):][:mask+1]
	for i := (h << b.rbits) >> b.pshift; ; i++ {
		e := &region[i&mask]
		if e.ref == 0 || e.key == key {
			return e.ref
		}
	}
}

// row returns the build tuple with ordinal ord.
func (b *build) row(ord uint32) []byte {
	off := int(ord) * b.tupleSize
	return b.tuples[off : off+b.tupleSize]
}

// cacheEntry is the check-or-claim cache slot for one build or link
// array, valid for what it was made from: v1 and v2 are table data
// versions or, for a link array over a build, the build itself
// (source.token). The done channel is the in-flight marker: installing
// the entry under mu claims the construction, and every other caller
// that finds a matching entry blocks on done instead of redundantly
// constructing (sync.Once-style, but keyed and version-checked).
type cacheEntry struct {
	v1, v2 any
	done   chan struct{}
	val    any
}

// cached returns the structure cached under key for versions (v1, v2),
// constructing it if the cache misses. Check and claim are one critical
// section: the first caller to observe a stale (or absent) entry
// installs a fresh one with an open done channel and constructs outside
// the lock; every concurrent caller for the same key and versions blocks
// on done and shares the result, so a structure is made at most once per
// data version no matter how many batches race.
func (e *Engine) cached(key any, v1, v2 any, construct func() any) any {
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

// NewEngine creates an executor with the given parallelism.
func NewEngine(replica *olap.Replica, workers int) *Engine {
	return &Engine{
		replica: replica,
		pool:    olap.NewPool(workers),
		cache:   make(map[any]*cacheEntry),
	}
}

// AttachStats points the engine at a scheduler's stats block so
// RunBatch records its per-phase timings (build-prepare, scan, merge)
// there.
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

	// Stage 1: ensure every needed join build exists and is current.
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

// prepareSources resolves every probe target of the batch to its source,
// constructing (or revalidating) the shared hash-join build sides, all
// concurrently — each construction is itself morsel-parallel, with the
// engine's pool keeping combined parallelism at its worker budget.
// Tables that maintain an incremental PK index are probed through it
// directly (for "pk" probes), so they never need a build — the key
// property that keeps per-batch setup cost independent of table size
// while updates stream in. The returned map pins the batch's builds so
// later cache evictions can't race the scan.
func (e *Engine) prepareSources(sv *olap.Snapshot, queries []*Query) map[buildID]*source {
	type needed struct {
		id buildID
		t  *olap.Table
		fn func(tup []byte) uint64
	}
	var needs []needed
	srcs := make(map[buildID]*source)
	for _, q := range queries {
		for i := range q.Probes {
			p := &q.Probes[i]
			id := buildID{p.Table, p.BuildKeyID}
			if _, seen := srcs[id]; seen {
				continue
			}
			t := sv.Table(p.Table)
			switch {
			case t == nil:
				// compilePlan fails the queries that probe it; the rest of
				// the batch runs.
			case t.HasPKIndex() && p.BuildKeyID == "pk":
				srcs[id] = pkSource(id, t)
			default:
				srcs[id] = nil
				needs = append(needs, needed{id, t, p.BuildKey})
			}
		}
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for _, n := range needs {
		wg.Add(1)
		go func(n needed) {
			defer wg.Done()
			// The build scans the pinned table, and the cache is keyed by
			// its data version, which every round that applies entries to
			// it bumps — a build made at the same version read the same
			// data.
			b := e.cached(n.id, n.t.Version(), nil, func() any { return e.constructBuild(n.t, n.fn) }).(*build)
			mu.Lock()
			srcs[n.id] = &source{id: n.id, token: b, b: b, nrows: b.nrows}
			mu.Unlock()
		}(n)
	}
	wg.Wait()
	return srcs
}

// constructBuild materializes one build in two parallel phases: (A) a
// morsel-driven scan appends (key, tuple) pairs into per-worker
// per-shard buckets — no synchronization, each worker owns its bucket
// rows; (B) each shard's region of the table, and its run of the tuple
// array, is filled by exactly one worker from the buckets all scan
// workers left for it. A duplicate key keeps the tuple inserted last.
func (e *Engine) constructBuild(t *olap.Table, keyFn func(tup []byte) uint64) *build {
	nshards, rbits := 1, uint8(0)
	for nshards < e.pool.Workers() {
		nshards <<= 1
		rbits++
	}
	type kv struct {
		k uint64
		v []byte
	}
	ms := e.morsels(t.Partitions)
	nw := max(min(e.pool.Workers(), len(ms)), 1)
	local := make([][][]kv, nw)
	for i := range local {
		local[i] = make([][]kv, nshards)
	}
	e.pool.ForEach(len(ms), func(worker, i int) {
		m, buckets := ms[i], local[worker]
		var slots [vecSize]int32
		for from := m.lo; from < m.hi; {
			var n int
			n, from = m.part.LiveSlots(m.lo, m.hi, nil, from, slots[:])
			for _, slot := range slots[:n] {
				tup := m.part.Tuple(slot)
				k := keyFn(tup)
				si := (k * hashMul) >> (64 - rbits)
				buckets[si] = append(buckets[si], kv{k, tup})
			}
		}
	})
	// Size every region for the fullest shard, and give shard si the
	// ordinals [first[si], first[si+1]).
	first := make([]int, nshards+1)
	most := 0
	for si := 0; si < nshards; si++ {
		n := 0
		for w := range local {
			n += len(local[w][si])
		}
		first[si+1] = first[si] + n
		most = max(most, n)
	}
	slots, pshift := 2, uint8(63)
	for slots < 2*most {
		slots <<= 1
		pshift--
	}
	ts := t.Schema.TupleSize()
	b := &build{
		ents:   make([]buildSlot, nshards*slots),
		tuples: make([]byte, first[nshards]*ts), tupleSize: ts, nrows: first[nshards],
		rbits: rbits, pshift: pshift,
	}
	e.pool.ForEach(nshards, func(_, si int) {
		region, mask := b.ents[si*slots:][:slots], uint64(slots-1)
		ord := uint32(first[si])
		for w := range local {
			for _, p := range local[w][si] {
				copy(b.row(ord), p.v)
				ord++ // from here the slot's ref: the ordinal plus one
				i := (p.k * hashMul << rbits) >> pshift
				for region[i&mask].ref != 0 && region[i&mask].key != p.k {
					i++
				}
				region[i&mask] = buildSlot{p.k, ord}
			}
		}
	})
	return b
}

// scanDriver plans and executes one driver table's share of the batch:
// every query is compiled to its plan (plan.go), the batch planner
// merges plans into cohorts and co-schedules the cohorts into scan
// passes (planner.go), and each pass runs the morsel-driven shared
// scan (scanPass). A compile error fails only that query; the rest of
// the batch proceeds without it.
func (e *Engine) scanDriver(sv *olap.Snapshot, qs []*Query, rs []*Result, prepared map[buildID]*source, scanNS, mergeNS *int64) {
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
	if len(plans) == 0 {
		return
	}
	cohorts := formCohorts(plans)
	if e.stats != nil {
		for _, c := range cohorts {
			if len(c.members) > 1 {
				e.stats.ExecCohortsShared.Inc()
				e.stats.ExecQueriesShared.Add(uint64(len(c.members)))
			}
		}
	}
	for _, sg := range e.formScanGroups(t, cohorts) {
		e.scanPass(t, sg, scanNS, mergeNS)
	}
}

// gacc accumulates one group key's per-member aggregate lanes inside a
// cohort: rows[mi] and vals[mi*naggs+ai] belong to member mi. Workers
// accumulate at the cohort's finest group-by arity; coarser members
// are rolled up to their own arity at merge time.
type gacc struct {
	rows []int64
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
// the tuples it is working on.
type passWorker struct {
	sg *scanGroup

	vals [][]float64
	rows []int64
	// groups[ci] is cohort ci's group map (nil until first hit, and
	// always nil for ungrouped cohorts).
	groups []map[groupKey]*gacc
	// aggScratch holds the representative's summands for the tuple (and
	// the aggregate kernels' block sums), extracted once per cohort and
	// fanned out to the live members.
	aggScratch []float64

	// Per morsel: active holds the per-member block verdicts; qvec marks
	// members whose Where was evaluated on the encoded blocks (sel[fi]
	// then holds the exact bitmap); aggDone marks members the aggregate
	// kernels already answered.
	active, qvec, aggDone []bool
	sel                   [][]uint64
	union                 []uint64

	// Per vector: slots are the tuples (slot numbers in the morsel's
	// partition); live[fi] marks those member fi still wants; rids[ord]
	// holds, for root step ord, the id plus one of the row each tuple
	// matched (stale where no user of the step wanted the tuple).
	slots [vecSize]int32
	keys  [vecSize]uint64
	live  []vmask
	rids  [][]uint32

	// Per tuple, in the walk: liveNow is the member mask, chain[pi] the
	// id plus one of the row matched at probe pi, joined the rows asked
	// for (cohort.needRow; nil elsewhere).
	liveNow []bool
	chain   []uint32
	joined  [][]byte

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
	nm := len(sg.flat)
	w.vals = make([][]float64, nm)
	w.rows = make([]int64, nm)
	nprobes := 0
	for fi, p := range sg.flat {
		w.vals[fi] = make([]float64, len(p.q.Aggs))
		nprobes = max(nprobes, len(p.q.Probes))
	}
	w.groups = make([]map[groupKey]*gacc, len(sg.cohorts))
	w.aggScratch = make([]float64, sg.naggsMax)
	w.active = make([]bool, nm)
	w.qvec = make([]bool, nm)
	w.aggDone = make([]bool, nm)
	w.live = make([]vmask, nm)
	w.rids = make([][]uint32, len(sg.roots))
	for ord := range w.rids {
		w.rids[ord] = make([]uint32, vecSize)
	}
	w.liveNow = make([]bool, nm)
	w.chain = make([]uint32, nprobes)
	w.joined = make([][]byte, 0, nprobes)
}

// scanPass performs one shared morsel-driven scan over the driver
// table for the scan group's cohorts. Per morsel, each member gets a
// zone-map verdict; a morsel every member's AND-list disproves is
// skipped whole. Members the encoded blocks can serve exactly get
// selection bitmaps (FilterRange), and pure driver-side aggregations
// whose bitmap covers every tuple are answered outright by the
// encoded-block aggregate kernels without materializing a row. The
// surviving tuples are taken a vector at a time through the pass's step
// forest (passWorker.vector): per-member driver predicates, the root
// steps' lookups with each member's folded bitmaps, and per cohort the
// walk, summand extraction and accumulation into the members' scalar
// lanes or the cohort's group map. Per-worker partials merge at the
// end; scan and merge wall times accumulate into scanNS/mergeNS.
//
// Pruned-tuple accounting is exact: every scan pass attributes each
// live tuple to exactly one of offered-to-the-vectors, answered by the
// aggregate kernels, or pruned — so ExecTuplesPruned ≡ live − offered
// − answered per pass, never double-counting a tuple that both a
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
		for fi, pl := range sg.flat {
			pl.r.Rows += w.rows[fi]
			for ai := range w.vals[fi] {
				pl.r.Values[ai] += w.vals[fi][ai]
			}
		}
	}
	e.mergeGroups(sg, func(ci int) []map[groupKey]*gacc {
		out := make([]map[groupKey]*gacc, 0, len(workers))
		for wi := range workers {
			if workers[wi].groups != nil {
				out = append(out, workers[wi].groups[ci])
			}
		}
		return out
	})
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
	// Block verdicts: offer this morsel's tuples only to members whose
	// pushed-down ranges the block synopses cannot disprove.
	any := false
	for fi, p := range sg.flat {
		a := true
		if len(p.ranges) > 0 {
			a = m.part.RangeMayMatch(m.lo, m.hi, p.ranges)
		}
		w.active[fi] = a
		w.aggDone[fi] = false
		w.qvec[fi] = false
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
		w.sel = make([][]uint64, len(sg.flat))
		for fi := range w.sel {
			w.sel[fi] = make([]uint64, words)
		}
	}
	// Vectorized predicates: translate each active member's pushed-down
	// ranges into an exact per-slot bitmap on the encoded vectors.
	// Members the encoded path cannot serve keep their kernels.
	if sg.anyRanges {
		for fi, p := range sg.flat {
			w.qvec[fi] = w.active[fi] && len(p.ranges) > 0 &&
				m.part.FilterRange(m.lo, m.hi, p.ranges, w.sel[fi][:words])
		}
	}
	// Aggregate kernels: a pure driver-side aggregation whose selection
	// covers every tuple of the morsel (no Where, or an all-set bitmap)
	// is answered from the encoded blocks — counts from the live
	// counters, sums from the packed runs — without materializing a
	// single row.
	if sg.anyVecAgg {
		for fi, p := range sg.flat {
			if !w.active[fi] || !p.vecAgg {
				continue
			}
			if len(p.ranges) > 0 && (!w.qvec[fi] || !allSet(w.sel[fi][:words], m.hi-m.lo)) {
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
			w.rows[fi] += live
			for ai := range p.q.Aggs {
				if p.q.Aggs[ai].Kind == Sum {
					w.vals[fi][ai] += w.aggScratch[ai]
				} else {
					w.vals[fi][ai] += float64(live)
				}
			}
			w.aggDone[fi] = true
			w.blocksAggVec++
		}
		any = false
		for fi := range sg.flat {
			if w.active[fi] && !w.aggDone[fi] {
				any = true
				break
			}
		}
		if !any {
			// Every active member answered from the encoded blocks: the
			// morsel's tuples were consumed, not pruned.
			return
		}
	}
	// Union bitmap: when every remaining member has an exact bitmap,
	// materialize only the union of their survivors. An empty union
	// finishes the morsel — its live tuples count as pruned (each
	// attributed once, whatever combination of verdicts and bitmaps
	// rejected it).
	var sel []uint64
	if sg.anyRanges {
		allVec := true
		for fi := range sg.flat {
			if w.active[fi] && !w.aggDone[fi] && !w.qvec[fi] {
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
				for fi := range sg.flat {
					if w.qvec[fi] && w.active[fi] && !w.aggDone[fi] {
						sel[wd] |= w.sel[fi][wd]
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

	// Driver predicates: each member's selection bitmap, typed kernel
	// and residual closure decide which tuples it wants.
	all := firstN(n)
	for fi, p := range sg.flat {
		lv := &w.live[fi]
		switch {
		case !w.active[fi] || w.aggDone[fi]:
			*lv = vmask{}
			continue
		case w.qvec[fi]:
			*lv = vmask{}
			sel := w.sel[fi]
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

	// Root steps, in forest order: one lookup per tuple that some member
	// holding the step still wants — a tight loop of independent key
	// computations and lookups — then each such member keeps the tuples
	// whose row its fold passes. A tuple every interested member has
	// dropped by the time a step runs is never looked up there.
	for _, st := range sg.roots {
		var need vmask
		for _, u := range st.users {
			need.or(&w.live[u.fi])
		}
		cnt := need.count()
		if cnt == 0 {
			continue
		}
		w.probeLookups += int64(cnt)
		rids := w.rids[st.ord][:n]
		src, key := st.src, st.key
		if cnt == n {
			// Keys first, lookups second: the second loop makes no call, so
			// many of its loads are in flight at once.
			keys := w.keys[:n]
			for i, slot := range slots {
				keys[i] = key(part.Tuple(slot), nil)
			}
			if b := src.b; b != nil {
				for i, k := range keys {
					rids[i] = b.find(k)
				}
			} else {
				for i, k := range keys {
					rids[i] = src.find(k)
				}
			}
		} else {
			for wd, word := range need {
				for ; word != 0; word &= word - 1 {
					i := wd<<6 + bits.TrailingZeros64(word)
					rids[i] = src.find(key(part.Tuple(slots[i]), nil))
				}
			}
		}
		for _, u := range st.users {
			lv := &w.live[u.fi]
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

	// Cohorts: what survives for any member is walked (if the cohort has
	// anything left to resolve per tuple), its summands and group key are
	// extracted once from the representative, and fanned out to the
	// members it survives for.
	for ci, c := range sg.cohorts {
		base := sg.off[ci]
		members := c.members
		var any vmask
		for mi := range members {
			any.or(&w.live[base+mi])
		}
		rep := members[0]
		naggs := len(rep.q.Aggs)
		for wd, word := range any {
			for ; word != 0; word &= word - 1 {
				i := wd<<6 + bits.TrailingZeros64(word)
				tup := part.Tuple(slots[i])
				for mi := range members {
					w.liveNow[base+mi] = w.live[base+mi][wd]>>(uint(i)&63)&1 == 1
				}
				if c.walk && !w.walk(c, base, i, tup) {
					continue
				}
				for ai := 0; ai < naggs; ai++ {
					if rep.q.Aggs[ai].Kind == Sum {
						w.aggScratch[ai] = rep.aggOf[ai](tup, w.joined)
					}
				}
				if c.ngroup == 0 {
					for mi := range members {
						if w.liveNow[base+mi] {
							w.rows[base+mi]++
							w.accumulate(rep, w.vals[base+mi])
						}
					}
					continue
				}
				var key groupKey
				for gi, fn := range rep.groupOf {
					key[gi] = fn(tup, w.joined)
				}
				g := w.groups[ci]
				if g == nil {
					g = make(map[groupKey]*gacc)
					w.groups[ci] = g
				}
				acc := g[key]
				if acc == nil {
					acc = &gacc{rows: make([]int64, len(members)), vals: make([]float64, len(members)*naggs)}
					g[key] = acc
				}
				for mi := range members {
					if w.liveNow[base+mi] {
						acc.rows[mi]++
						w.accumulate(rep, acc.vals[mi*naggs:])
					}
				}
			}
		}
	}
}

// accumulate adds the tuple's summands (w.aggScratch, the cohort
// representative rep's) into one member's aggregate lanes.
func (w *passWorker) accumulate(rep *qplan, vals []float64) {
	for ai := range rep.q.Aggs {
		if rep.q.Aggs[ai].Kind == Sum {
			vals[ai] += w.aggScratch[ai]
		} else {
			vals[ai]++
		}
	}
}

// walk finishes tuple i of the vector for cohort c, whose members start
// at flat index base and survive as w.liveNow says: in chain order it
// recovers each probe's matched row id — a root step's from the vector,
// a linked step's through the links, a tail step's by the lookup the
// scan has not made yet — materializes the rows the cohort asked for
// into w.joined, and applies what is still per hit: tail steps' filters
// and filters too large to keep as bitmaps. It reports whether any
// member survives.
func (w *passWorker) walk(c *cohort, base, i int, tup []byte) bool {
	rep := c.members[0]
	w.joined = w.joined[:0]
	for pi, st := range rep.steps {
		var rid uint32
		switch st.kind {
		case rootStep:
			rid = w.rids[st.ord][i]
		case linkedStep:
			rid = st.link.to[w.chain[rep.q.Probes[pi].From]-1]
		default:
			w.probeLookups++
			if rid = st.src.find(st.key(tup, w.joined)); rid == 0 {
				return false
			}
		}
		w.chain[pi] = rid
		var row []byte
		if c.needRow[pi] {
			row = st.src.row(rid - 1)
		}
		if c.perHit[pi] {
			any := false
			for mi, m := range c.members {
				if !w.liveNow[base+mi] {
					continue
				}
				ok := true
				if lk := &m.lookups[pi]; lk.bits == nil && lk.pred != nil {
					w.predEvals++
					ok = lk.pred(row)
				} else if lk.bits != nil && st.kind == tailStep {
					ok = hasBit(lk.bits, rid-1)
				}
				w.liveNow[base+mi] = ok
				any = any || ok
			}
			if !any {
				return false
			}
		}
		w.joined = append(w.joined, row)
	}
	return true
}

// mergeGroups combines the workers' per-cohort group maps at the
// finest arity, rolls every member up to its own group-by prefix, and
// emits each member's Groups sorted by key, with its Values/Rows set
// to the totals. A member of a grouped cohort with no GroupBy of its
// own (the empty prefix) receives totals only — identical to running
// it alone as a scalar query.
func (e *Engine) mergeGroups(sg *scanGroup, workerMaps func(ci int) []map[groupKey]*gacc) {
	for ci, c := range sg.cohorts {
		if c.ngroup == 0 {
			continue
		}
		nmem := len(c.members)
		naggs := len(c.members[0].q.Aggs)
		merged := make(map[groupKey]*gacc)
		for _, g := range workerMaps(ci) {
			for key, acc := range g {
				dst := merged[key]
				if dst == nil {
					dst = &gacc{rows: make([]int64, nmem), vals: make([]float64, nmem*naggs)}
					merged[key] = dst
				}
				for mi := 0; mi < nmem; mi++ {
					dst.rows[mi] += acc.rows[mi]
					for ai := 0; ai < naggs; ai++ {
						dst.vals[mi*naggs+ai] += acc.vals[mi*naggs+ai]
					}
				}
			}
		}
		for mi, m := range c.members {
			arity := m.narity()
			if arity == 0 {
				for _, acc := range merged {
					m.r.Rows += acc.rows[mi]
					for ai := 0; ai < naggs; ai++ {
						m.r.Values[ai] += acc.vals[mi*naggs+ai]
					}
				}
				continue
			}
			// Roll up to the member's own arity; groups the member never
			// matched (rows 0 — its lanes were only ever written together
			// with rows) belong to other members and are dropped.
			rolled := make(map[groupKey]*gacc)
			for key, acc := range merged {
				if acc.rows[mi] == 0 {
					continue
				}
				var pk groupKey
				copy(pk[:arity], key[:arity])
				ra := rolled[pk]
				if ra == nil {
					ra = &gacc{rows: make([]int64, 1), vals: make([]float64, naggs)}
					rolled[pk] = ra
				}
				ra.rows[0] += acc.rows[mi]
				for ai := 0; ai < naggs; ai++ {
					ra.vals[ai] += acc.vals[mi*naggs+ai]
				}
			}
			keys := make([]groupKey, 0, len(rolled))
			for k := range rolled {
				keys = append(keys, k)
			}
			slices.SortFunc(keys, func(a, b groupKey) int {
				for i := 0; i < arity; i++ {
					if a[i] != b[i] {
						if a[i] < b[i] {
							return -1
						}
						return 1
					}
				}
				return 0
			})
			for _, k := range keys {
				ra := rolled[k]
				m.r.Groups = append(m.r.Groups, GroupResult{
					Key:    append([]int64(nil), k[:arity]...),
					Values: ra.vals,
					Rows:   ra.rows[0],
				})
				m.r.Rows += ra.rows[0]
				for ai := range ra.vals {
					m.r.Values[ai] += ra.vals[ai]
				}
			}
		}
	}
}
