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
// covers the modified CH-benCHmark query set in Appendix A. The paper
// notes (§8.4) that BatchDB's isolation properties do not depend on
// shared execution; exec's QueryAtATime mode exists to ablate exactly
// that.
package exec

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
	// workers bounds the scan/build parallelism (paper: the OLAP
	// replica's dedicated cores).
	workers int

	// MorselTuples is the number of tuple slots per scan morsel; <= 0
	// selects DefaultMorselTuples. Set before the first RunBatch.
	MorselTuples int

	// QueryAtATime disables scan sharing: each query performs its own
	// scan pass. Used by the ablation benchmark.
	QueryAtATime bool

	// DisablePruning turns off zone-map morsel skipping; declarative
	// predicates are still compiled and evaluated tuple-at-a-time. Used
	// by the pruning ablation benchmark and the on/off parity tests.
	DisablePruning bool

	// DisableVectorized turns off the compressed-block predicate
	// kernels: morsels fall back to tuple-at-a-time kernel evaluation
	// even when encoded vectors could serve the predicate exactly.
	// Zone-map pruning is unaffected. Used by the compression ablation
	// benchmark and the on/off parity tests. Implied by DisablePruning,
	// since the encoded vectors only cover synopsis-active columns.
	// Also disables the encoded-block aggregate kernels.
	DisableVectorized bool

	// DisableSharing turns off batch-planner pipeline merging and
	// predicate-overlap co-scheduling: every query runs as its own
	// cohort in one shared scan pass, exactly the pre-planner
	// behavior. Used by the MQO ablation benchmark and the
	// shared-vs-private parity tests.
	DisableSharing bool

	// AdmitBudget bounds the estimated execution time of one batch for
	// the AdmitBatch admission hook; <= 0 (the default) admits
	// everything.
	AdmitBudget time.Duration

	// sem bounds the total number of in-flight leaf tasks (morsels,
	// shard merges) across everything the engine runs concurrently, so
	// parallel build construction still respects the worker budget.
	sem chan struct{}

	// stats, when attached, receives per-batch phase timings.
	stats *olap.SchedulerStats

	// fresh, when attached, stamps each Result with the snapshot's
	// wall-clock staleness.
	fresh *obs.Freshness

	mu     sync.Mutex
	builds map[buildID]*buildEntry
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

// find returns the build tuple stored under key and its ordinal.
func (b *build) find(key uint64) (tup []byte, ord uint32, ok bool) {
	h := key * hashMul
	mask := uint64(1)<<(64-b.pshift) - 1
	region := b.ents[(h>>(64-b.rbits))<<(64-b.pshift):][:mask+1]
	for i := (h << b.rbits) >> b.pshift; ; i++ {
		e := &region[i&mask]
		if e.ref == 0 {
			return nil, 0, false
		}
		if e.key == key {
			return b.row(e.ref - 1), e.ref - 1, true
		}
	}
}

// row returns the build tuple with ordinal ord.
func (b *build) row(ord uint32) []byte {
	off := int(ord) * b.tupleSize
	return b.tuples[off : off+b.tupleSize]
}

// buildEntry is the check-or-claim cache slot for one build. The done
// channel is the in-flight marker: installing the entry under mu claims
// the construction, and every other caller that finds a matching entry
// blocks on done instead of redundantly building (sync.Once-style, but
// keyed and version-checked).
type buildEntry struct {
	version uint64
	done    chan struct{}
	b       *build
}

// NewEngine creates an executor with the given parallelism.
func NewEngine(replica *olap.Replica, workers int) *Engine {
	if workers <= 0 {
		workers = 1
	}
	return &Engine{
		replica: replica,
		workers: workers,
		sem:     make(chan struct{}, workers),
		builds:  make(map[buildID]*buildEntry),
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

// morsel is one unit of scan work: a slot range of one partition.
type morsel struct {
	part   *olap.Partition
	lo, hi int
}

// morsels cuts the partitions' slot spaces into MorselTuples-sized
// ranges. Skewed layouts (one huge partition) still yield many morsels,
// so all workers stay busy regardless of how tuples are distributed.
func (e *Engine) morsels(parts []*olap.Partition) []morsel {
	mt := e.MorselTuples
	if mt <= 0 {
		mt = DefaultMorselTuples
	}
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

// forEach runs fn for every task index in [0, n) on up to
// min(workers, n) goroutines pulling indices off an atomic
// work-stealing cursor. Each leaf task additionally holds a slot of the
// engine-wide semaphore, so concurrent forEach calls (parallel build
// construction) share the worker budget instead of multiplying it.
// The worker argument is a dense id in [0, min(workers, n)) for
// per-worker scratch.
func (e *Engine) forEach(n int, fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	w := e.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		e.sem <- struct{}{}
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		<-e.sem
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				e.sem <- struct{}{}
				fn(worker, i)
				<-e.sem
			}
		}(g)
	}
	wg.Wait()
}

// forEachMorsel is the engine's single shared morsel-scan loop — driver
// scans and build-side scans both run through it. begin runs once per
// morsel on the worker that claimed it and returns the per-tuple
// visitor, or nil to skip the morsel without touching its tuples — the
// zone-map pruning hook. The second return is an optional selection
// bitmap (bit i ↔ slot m.lo+i): when non-nil only the selected live
// tuples are materialized — the compressed-block fast path, where the
// bitmap came from predicate kernels over the encoded vectors and
// everything it rejects is already disproved. The visitor's off is the
// tuple's slot offset relative to m.lo, for per-query bitmap tests.
func (e *Engine) forEachMorsel(ms []morsel, begin func(worker int, m morsel) (func(off int, rowID uint64, tup []byte) bool, []uint64)) {
	e.forEach(len(ms), func(worker, i int) {
		m := ms[i]
		if fn, sel := begin(worker, m); fn != nil {
			m.part.ScanSelected(m.lo, m.hi, sel, fn)
		}
	})
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
	prepared, err := e.prepareBuilds(sv, queries)
	if e.stats != nil {
		e.stats.ExecBuildPrepare.RecordSince(t0)
	}
	if err != nil {
		for i := range results {
			results[i].Err = err
		}
		return results
	}

	// Stage 2: group queries by driver table and share scans.
	var scanNS, mergeNS int64
	if e.QueryAtATime {
		for i := range queries {
			e.scanDriver(sv, []*Query{queries[i]}, []*Result{&results[i]}, prepared, &scanNS, &mergeNS)
		}
	} else {
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
	}
	if e.stats != nil {
		e.stats.ExecScan.Record(scanNS)
		e.stats.ExecMerge.Record(mergeNS)
	}
	return results
}

// prepareBuilds constructs (or revalidates) the shared hash-join build
// sides needed by the batch, all concurrently — each construction is
// itself morsel-parallel, with the engine semaphore keeping combined
// parallelism at the worker budget. Tables that maintain an incremental
// PK index are probed through it directly (for "pk" probes), so they
// never need a build — the key property that keeps per-batch setup cost
// independent of table size while updates stream in. The returned map
// pins the batch's builds so later cache evictions can't race the scan.
func (e *Engine) prepareBuilds(sv *olap.Snapshot, queries []*Query) (map[buildID]*build, error) {
	type needed struct {
		id buildID
		fn func(tup []byte) uint64
	}
	var needs []needed
	seen := make(map[buildID]bool)
	for _, q := range queries {
		for i := range q.Probes {
			p := &q.Probes[i]
			if t := sv.Table(p.Table); t != nil && t.HasPKIndex() && p.BuildKeyID == "pk" {
				continue
			}
			id := buildID{p.Table, p.BuildKeyID}
			if !seen[id] {
				seen[id] = true
				needs = append(needs, needed{id, p.BuildKey})
			}
		}
	}
	prepared := make(map[buildID]*build, len(needs))
	if len(needs) == 0 {
		return prepared, nil
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	for _, n := range needs {
		wg.Add(1)
		go func(n needed) {
			defer wg.Done()
			b, err := e.buildFor(sv, n.id, n.fn)
			mu.Lock()
			if err != nil && ferr == nil {
				ferr = err
			}
			prepared[n.id] = b
			mu.Unlock()
		}(n)
	}
	wg.Wait()
	if ferr != nil {
		return nil, ferr
	}
	return prepared, nil
}

// buildFor returns the current build for id, constructing it if the
// cache misses. Check and claim are one critical section: the first
// caller to observe a stale (or absent) entry installs a fresh entry
// with an open done channel and builds outside the lock; every
// concurrent caller for the same (id, version) blocks on done and
// shares the result, so a build is constructed at most once per data
// version no matter how many batches race. The build scans the pinned
// snapshot's view, and the cache is keyed by the view's data version —
// an older view at the same version holds identical data, so sharing
// across snapshots stays correct.
func (e *Engine) buildFor(sv *olap.Snapshot, id buildID, keyFn func(tup []byte) uint64) (*build, error) {
	t := sv.Table(id.table)
	if t == nil {
		return nil, fmt.Errorf("exec: probe into unknown table %d", id.table)
	}
	ver := t.Version()
	e.mu.Lock()
	if be := e.builds[id]; be != nil && be.version == ver {
		e.mu.Unlock()
		<-be.done
		return be.b, nil
	}
	be := &buildEntry{version: ver, done: make(chan struct{})}
	e.builds[id] = be
	e.mu.Unlock()
	be.b = e.constructBuild(t, keyFn)
	close(be.done)
	return be.b, nil
}

// constructBuild materializes one build in two parallel phases: (A) a
// morsel-driven scan appends (key, tuple) pairs into per-worker
// per-shard buckets — no synchronization, each worker owns its bucket
// rows; (B) each shard's region of the table, and its run of the tuple
// array, is filled by exactly one worker from the buckets all scan
// workers left for it. A duplicate key keeps the tuple inserted last.
func (e *Engine) constructBuild(t *olap.Table, keyFn func(tup []byte) uint64) *build {
	nshards, rbits := 1, uint8(0)
	for nshards < e.workers {
		nshards <<= 1
		rbits++
	}
	type kv struct {
		k uint64
		v []byte
	}
	ms := e.morsels(t.Partitions)
	nw := max(min(e.workers, len(ms)), 1)
	local := make([][][]kv, nw)
	for i := range local {
		local[i] = make([][]kv, nshards)
	}
	e.forEachMorsel(ms, func(worker int, _ morsel) (func(int, uint64, []byte) bool, []uint64) {
		buckets := local[worker]
		return func(_ int, _ uint64, tup []byte) bool {
			k := keyFn(tup)
			si := (k * hashMul) >> (64 - rbits)
			buckets[si] = append(buckets[si], kv{k, tup})
			return true
		}, nil
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
	e.forEach(nshards, func(_, si int) {
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
func (e *Engine) scanDriver(sv *olap.Snapshot, qs []*Query, rs []*Result, prepared map[buildID]*build, scanNS, mergeNS *int64) {
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
	cohorts := formCohorts(plans, e.DisableSharing)
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

// scanPass performs one shared morsel-driven scan over the driver
// table for the scan group's cohorts. Per morsel, each member gets a
// zone-map verdict; a morsel every member's AND-list disproves is
// skipped whole. Members the encoded blocks can serve exactly get
// selection bitmaps (FilterRange), and pure driver-side aggregations
// whose bitmap covers every tuple are answered outright by the
// encoded-block aggregate kernels without materializing a row. The
// surviving tuples run the cohort pipelines: per-member predicates
// gate a per-tuple live mask, the representative's probe chain and
// summand extraction run once per cohort, and each live member
// accumulates into its scalar lanes or the cohort's group map.
// Per-worker partials merge at the end; scan and merge wall times
// accumulate into scanNS/mergeNS.
//
// Pruned-tuple accounting is exact: every scan pass attributes each
// live tuple to exactly one of offered-to-the-visitor, answered by the
// aggregate kernels, or pruned — so ExecTuplesPruned ≡ live − offered
// − answered per pass, never double-counting a tuple that both a
// zone-map verdict and an empty FilterRange bitmap rejected.
func (e *Engine) scanPass(t *olap.Table, sg *scanGroup, scanNS, mergeNS *int64) {
	ms := e.morsels(t.Partitions)
	nw := e.workers
	if nw > len(ms) {
		nw = len(ms)
	}
	if nw < 1 {
		nw = 1
	}
	nm := len(sg.flat)
	prune := sg.anyRanges && !e.DisablePruning
	vectorize := prune && !e.DisableVectorized
	aggFast := sg.anyVecAgg && !e.DisablePruning && !e.DisableVectorized

	type partial struct {
		vals   [][]float64
		rows   []int64
		joined [][]byte
		// groups[ci] is cohort ci's group map (nil until first hit, and
		// always nil for ungrouped cohorts).
		groups []map[groupKey]*gacc
		// aggScratch holds the representative's summands for the tuple
		// (and the aggregate kernels' block sums), extracted once per
		// cohort and fanned out to the live members.
		aggScratch []float64
		// active holds the morsel's per-member block verdicts; qvec
		// marks members whose Where was evaluated on the encoded blocks
		// (sel[fi] then holds the exact bitmap); aggDone marks members
		// the aggregate kernels already answered for this morsel;
		// liveNow is the per-tuple member mask.
		active, qvec, aggDone, liveNow []bool
		sel                            [][]uint64
		union                          []uint64
		// Stats, summed into the engine counters at merge. pendingLive
		// counts live tuples in scanned morsels and offered the tuples
		// the visitor saw; their difference is what bitmaps pruned.
		blocksScanned, blocksSkipped, blocksVectorized, blocksAggVec int64
		tuplesPruned, pendingLive, offered                           int64
		// probeLookups counts probe-chain lookups and predEvals the probe
		// filters evaluated on a hit (a filter with a bitmap costs a bit
		// test instead and is not counted here).
		probeLookups, predEvals int64
	}
	partials := make([]partial, nw)
	t0 := time.Now()
	e.forEachMorsel(ms, func(worker int, m morsel) (func(int, uint64, []byte) bool, []uint64) {
		pt := &partials[worker]
		if pt.vals == nil {
			pt.vals = make([][]float64, nm)
			pt.rows = make([]int64, nm)
			for fi, p := range sg.flat {
				pt.vals[fi] = make([]float64, len(p.q.Aggs))
			}
			pt.joined = make([][]byte, 0, 8)
			pt.groups = make([]map[groupKey]*gacc, len(sg.cohorts))
			pt.aggScratch = make([]float64, sg.naggsMax)
			pt.active = make([]bool, nm)
			pt.qvec = make([]bool, nm)
			pt.aggDone = make([]bool, nm)
			pt.liveNow = make([]bool, nm)
		}
		// Block verdicts: offer this morsel's tuples only to members
		// whose pushed-down ranges the block synopses cannot disprove.
		any := false
		for fi, p := range sg.flat {
			a := true
			if prune && len(p.ranges) > 0 {
				a = m.part.RangeMayMatch(m.lo, m.hi, p.ranges)
			}
			pt.active[fi] = a
			pt.aggDone[fi] = false
			any = any || a
		}
		if !any {
			pt.blocksSkipped++
			pt.tuplesPruned += int64(m.part.LiveInRange(m.lo, m.hi))
			return nil, nil
		}
		pt.blocksScanned++
		words := (m.hi - m.lo + 63) >> 6
		if (vectorize || aggFast) && len(pt.union) < words {
			pt.union = make([]uint64, words)
			pt.sel = make([][]uint64, nm)
			for fi := range pt.sel {
				pt.sel[fi] = make([]uint64, words)
			}
		}
		// Vectorized predicates: translate each active member's
		// pushed-down ranges into an exact per-slot bitmap on the
		// encoded vectors. Members the encoded path cannot serve keep
		// their kernels.
		if vectorize {
			for fi, p := range sg.flat {
				pt.qvec[fi] = pt.active[fi] && len(p.ranges) > 0 &&
					m.part.FilterRange(m.lo, m.hi, p.ranges, pt.sel[fi][:words])
			}
		}
		// Aggregate kernels: a pure driver-side aggregation whose
		// selection covers every tuple of the morsel (no Where, or an
		// all-set bitmap) is answered from the encoded blocks — counts
		// from the live counters, sums from the packed runs — without
		// materializing a single row.
		if aggFast {
			for fi, p := range sg.flat {
				if !pt.active[fi] || !p.vecAgg {
					continue
				}
				if len(p.ranges) > 0 && (!pt.qvec[fi] || !allSet(pt.sel[fi][:words], m.hi-m.lo)) {
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
					pt.aggScratch[ai] = s
				}
				if !ok {
					continue
				}
				live := int64(m.part.LiveInRange(m.lo, m.hi))
				pt.rows[fi] += live
				for ai := range p.q.Aggs {
					if p.q.Aggs[ai].Kind == Sum {
						pt.vals[fi][ai] += pt.aggScratch[ai]
					} else {
						pt.vals[fi][ai] += float64(live)
					}
				}
				pt.aggDone[fi] = true
				pt.blocksAggVec++
			}
			any = false
			for fi := range sg.flat {
				if pt.active[fi] && !pt.aggDone[fi] {
					any = true
					break
				}
			}
			if !any {
				// Every active member answered from the encoded blocks:
				// the morsel's tuples were consumed, not pruned.
				return nil, nil
			}
		}
		// Union bitmap: when every remaining member has an exact
		// bitmap, materialize only the union of their survivors. An
		// empty union finishes the morsel — its live tuples count as
		// pruned (each attributed once, whatever combination of
		// verdicts and bitmaps rejected it).
		var sel []uint64
		if vectorize {
			allVec := true
			for fi := range sg.flat {
				if pt.active[fi] && !pt.aggDone[fi] && !pt.qvec[fi] {
					allVec = false
					break
				}
			}
			if allVec {
				pt.blocksVectorized++
				sel = pt.union[:words]
				anyBit := uint64(0)
				for w := range sel {
					sel[w] = 0
					for fi := range sg.flat {
						if pt.qvec[fi] && pt.active[fi] && !pt.aggDone[fi] {
							sel[w] |= pt.sel[fi][w]
						}
					}
					anyBit |= sel[w]
				}
				if anyBit == 0 {
					pt.pendingLive += int64(m.part.LiveInRange(m.lo, m.hi))
					return nil, nil
				}
			}
		}
		if prune {
			pt.pendingLive += int64(m.part.LiveInRange(m.lo, m.hi))
		}
		return func(off int, _ uint64, tup []byte) bool {
			if prune {
				pt.offered++
			}
			for ci, c := range sg.cohorts {
				base := sg.off[ci]
				members := c.members
				// Per-member driver predicates gate the tuple's live
				// mask; the cohort pipeline runs while any member lives.
				any := false
				for mi, p := range members {
					fi := base + mi
					ok := pt.active[fi] && !pt.aggDone[fi]
					if ok {
						if pt.qvec[fi] {
							ok = pt.sel[fi][off>>6]>>(uint(off)&63)&1 == 1
						} else if k := p.kernel; k != nil {
							ok = k(tup)
						}
					}
					if ok && p.q.DriverPred != nil {
						ok = p.q.DriverPred(tup)
					}
					pt.liveNow[fi] = ok
					any = any || ok
				}
				if !any {
					continue
				}
				// The representative's probe chain runs once for the
				// cohort (ShareKey promises interchangeable keys);
				// per-member probe filters narrow the live mask.
				rep := members[0]
				pt.joined = pt.joined[:0]
				matched := true
				for pi := range rep.q.Probes {
					pt.probeLookups++
					match, ord, found := rep.lookups[pi].find(rep.q.Probes[pi].ProbeKey(tup, pt.joined))
					if !found {
						matched = false
						break
					}
					any = false
					for mi := range members {
						fi := base + mi
						if !pt.liveNow[fi] {
							continue
						}
						ok := true
						if lk := &members[mi].lookups[pi]; lk.bits != nil {
							ok = lk.bits[ord>>6]>>(ord&63)&1 == 1
						} else if lk.pred != nil {
							pt.predEvals++
							ok = lk.pred(match)
						}
						pt.liveNow[fi] = ok
						any = any || ok
					}
					if !any {
						matched = false
						break
					}
					pt.joined = append(pt.joined, match)
				}
				if !matched {
					continue
				}
				// Summands and the group key are extracted once from the
				// representative, then fanned out to the live members.
				naggs := len(rep.q.Aggs)
				for ai := 0; ai < naggs; ai++ {
					if rep.q.Aggs[ai].Kind == Sum {
						pt.aggScratch[ai] = rep.aggOf[ai](tup, pt.joined)
					}
				}
				if c.ngroup == 0 {
					for mi := range members {
						fi := base + mi
						if !pt.liveNow[fi] {
							continue
						}
						pt.rows[fi]++
						vals := pt.vals[fi]
						for ai := 0; ai < naggs; ai++ {
							if rep.q.Aggs[ai].Kind == Sum {
								vals[ai] += pt.aggScratch[ai]
							} else {
								vals[ai]++
							}
						}
					}
					continue
				}
				var key groupKey
				for gi, fn := range rep.groupOf {
					key[gi] = fn(tup, pt.joined)
				}
				g := pt.groups[ci]
				if g == nil {
					g = make(map[groupKey]*gacc)
					pt.groups[ci] = g
				}
				acc := g[key]
				if acc == nil {
					acc = &gacc{rows: make([]int64, len(members)), vals: make([]float64, len(members)*naggs)}
					g[key] = acc
				}
				for mi := range members {
					fi := base + mi
					if !pt.liveNow[fi] {
						continue
					}
					acc.rows[mi]++
					vals := acc.vals[mi*naggs:]
					for ai := 0; ai < naggs; ai++ {
						if rep.q.Aggs[ai].Kind == Sum {
							vals[ai] += pt.aggScratch[ai]
						} else {
							vals[ai]++
						}
					}
				}
			}
			return true
		}, sel
	})
	if scanNS != nil {
		*scanNS += int64(time.Since(t0))
	}
	t1 := time.Now()
	var bScan, bSkip, tPrune, bVec, bAggVec, lookups, predEvals int64
	for wi := range partials {
		p := &partials[wi]
		lookups += p.probeLookups
		predEvals += p.predEvals
		bScan += p.blocksScanned
		bSkip += p.blocksSkipped
		bVec += p.blocksVectorized
		bAggVec += p.blocksAggVec
		tPrune += p.tuplesPruned + p.pendingLive - p.offered
		if p.vals == nil {
			continue
		}
		for fi, pl := range sg.flat {
			pl.r.Rows += p.rows[fi]
			for ai := range p.vals[fi] {
				pl.r.Values[ai] += p.vals[fi][ai]
			}
		}
	}
	e.mergeGroups(sg, func(ci int) []map[groupKey]*gacc {
		out := make([]map[groupKey]*gacc, 0, len(partials))
		for wi := range partials {
			if partials[wi].groups != nil {
				out = append(out, partials[wi].groups[ci])
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
