// The batch planner (ROADMAP item 5, paper §5's open MQJoin/SharedDB
// direction): given one driver table's compiled plans it decides
//
//   - which plans merge into a *cohort* — a shared pipeline that pays
//     group-key extraction and summand evaluation once per tuple and
//     fans the partial aggregates out to member queries only at the
//     final merge;
//   - which probes of a scan pass are the same *step* — the pass's
//     cohorts compile into one step forest (compileForest), so a lookup
//     is made once per driver tuple for every query that needs it,
//     whatever its template, and a step whose key is a function of a row
//     already matched is resolved once per such row, not per tuple;
//   - how cohorts are *co-scheduled* into scan passes: cohorts whose
//     pushed-down predicate hulls are disjoint on a common column are
//     split into separate passes when the zone maps say the split
//     saves more block fetches than the extra pass costs, so block
//     skipping compounds across the batch;
//   - whether an oversized batch should be *admitted* at all
//     (Engine.AdmitBatch), from the per-phase histograms the scheduler
//     already records.
//
// Merging is opt-in via Query.ShareKey and step sharing via
// Probe.KeyID; both are otherwise purely structural, so a batch with
// zero overlap degenerates to singleton cohorts over disjoint steps in
// one pass.
package exec

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"batchdb/internal/olap"
)

// cohort is one shared pipeline: members agree on driver, probe chain
// structure, aggregate signature and a group-by prefix. members[0] is
// the representative — the member with the longest (finest) GroupBy —
// whose steps, group extractors and summand extractors run for the
// whole cohort; per-member predicates and probe filters still apply
// individually. ngroup is the finest arity; coarser members are rolled
// up from the finest keys at merge time.
type cohort struct {
	members []*qplan
	ngroup  int

	// What the scan still does per surviving tuple, after the root steps
	// and the folded bitmaps have decided which members it survives for
	// (set by compileForest): needRow[pi] asks for probe pi's matched row
	// in joined[pi] — a group-by column, a closure summand, a tail step's
	// key or a per-hit filter reads it — and perHit[pi] says some member
	// still has a filter to apply at pi. walk is false when neither is
	// set anywhere: the tuple goes straight to aggregation.
	walk            bool
	needRow, perHit []bool
}

// ShareKey is the soundness contract behind merging: two queries with
// equal non-empty ShareKeys promise that their BuildKey, ProbeKey and
// closure aggregate functions are interchangeable (same template,
// differing only in predicate constants and residual filters). The
// engine already assumes BuildKey interchangeability for queries
// sharing a (table, BuildKeyID) build; ShareKey extends the same
// contract to the probe and aggregate closures. mergeable additionally
// verifies everything structural.
func mergeable(a, b *qplan) bool {
	if a.q.ShareKey == "" || a.q.ShareKey != b.q.ShareKey {
		return false
	}
	if len(a.q.Probes) != len(b.q.Probes) || len(a.q.Aggs) != len(b.q.Aggs) {
		return false
	}
	for pi := range a.q.Probes {
		ap, bp := &a.q.Probes[pi], &b.q.Probes[pi]
		if ap.Table != bp.Table || ap.BuildKeyID != bp.BuildKeyID ||
			ap.KeyID != bp.KeyID || (ap.KeyID != "" && ap.From != bp.From) {
			return false
		}
	}
	for ai := range a.q.Aggs {
		aa, ba := &a.q.Aggs[ai], &b.q.Aggs[ai]
		if aa.Kind != ba.Kind || aa.colSet != ba.colSet || (aa.colSet && aa.col != ba.col) {
			return false
		}
	}
	// GroupBy lists must be prefix-compatible (one a prefix of the
	// other); the cohort accumulates at the finest arity and rolls
	// coarser members up at merge.
	short, long := a.q.GroupBy, b.q.GroupBy
	if len(short) > len(long) {
		short, long = long, short
	}
	for i := range short {
		if short[i] != long[i] {
			return false
		}
	}
	return true
}

// formCohorts partitions one driver table's plans into cohorts, merging
// greedily in input order, which keeps the result deterministic.
func formCohorts(plans []*qplan) []*cohort {
	cohorts := make([]*cohort, 0, len(plans))
	byKey := make(map[string][]*cohort)
	for _, p := range plans {
		if p.q.ShareKey != "" {
			merged := false
			for _, c := range byKey[p.q.ShareKey] {
				if mergeable(c.members[0], p) {
					if p.narity() > c.ngroup {
						// Keep the finest member first: its extractors
						// drive the whole cohort.
						c.members = append(c.members, c.members[0])
						c.members[0] = p
						c.ngroup = p.narity()
					} else {
						c.members = append(c.members, p)
					}
					merged = true
					break
				}
			}
			if merged {
				continue
			}
		}
		c := &cohort{members: []*qplan{p}, ngroup: p.narity()}
		cohorts = append(cohorts, c)
		if p.q.ShareKey != "" {
			byKey[p.q.ShareKey] = append(byKey[p.q.ShareKey], c)
		}
	}
	return cohorts
}

// scanGroup is one morsel pass over the driver table: the cohorts it
// evaluates, flattened for the hot loop.
type scanGroup struct {
	cohorts []*cohort
	// flat lists every member in cohort order; off[ci] is the flat
	// index of cohorts[ci].members[0].
	flat []*qplan
	off  []int
	// roots are the pass's root steps, in the order the scan runs them
	// (compileForest).
	roots []*step
	// anyRanges / anyVecAgg gate the pruning and aggregate fast paths.
	anyRanges bool
	anyVecAgg bool
	// naggsMax sizes the per-worker summand scratch.
	naggsMax int
}

func newScanGroup(cohorts []*cohort) *scanGroup {
	sg := &scanGroup{cohorts: cohorts}
	for _, c := range cohorts {
		sg.off = append(sg.off, len(sg.flat))
		for _, m := range c.members {
			sg.flat = append(sg.flat, m)
			sg.anyRanges = sg.anyRanges || len(m.ranges) > 0
			sg.anyVecAgg = sg.anyVecAgg || m.vecAgg
			if n := len(m.q.Aggs); n > sg.naggsMax {
				sg.naggsMax = n
			}
		}
	}
	return sg
}

// A step is one probe as the pass runs it. Probes of different queries
// that declare the same thing (Probe.KeyID) are one step:
//
//   - a root step's key comes from the driver tuple (From == -1). The
//     scan looks it up once per driver tuple for every query of the pass
//     that has it, a vector at a time;
//   - a linked step's key comes from the row another root or linked step
//     matched (From == k). It is a pure function of that row, so it is
//     resolved once per parent row into a link array — parent row id →
//     child row id — cached beside the builds for as long as both tables
//     keep their data version. The scan never looks it up: each member's
//     filters along a path of linked steps fold into one bitmap over the
//     root's rows (foldOf), and the rows themselves are reached through
//     the links only for tuples that survive;
//   - a tail step is a probe that declares nothing (or hangs off one):
//     nobody outside its cohort shares it, and it runs per surviving
//     tuple, in chain order, with the representative's ProbeKey.
//
// A join is a conjunction, so running the root steps first and the tail
// last changes no answer; joined[] still holds the matched rows in probe
// order. What breaks the promise behind KeyID/From is a ProbeKey that
// reads more than it declares (it is handed a nil driver and only
// joined[From] when links are made) or two probes that share a KeyID and
// compute different keys; chbench's TestProbeDeclarationsMatchClosures
// holds the 14 templates to it.
type stepKind uint8

const (
	tailStep stepKind = iota
	rootStep
	linkedStep
)

type step struct {
	kind stepKind
	src  *source
	// key is the ProbeKey of the first probe compiled into the step.
	key func(driver []byte, joined [][]byte) uint64

	// Root steps: ord indexes the scan's row-id vectors; users are the
	// pass's members whose chains hold the step.
	ord   int
	users []rootUser

	// Linked steps: the link array from the parent step's rows.
	link *linkArray
}

// rootUser is one member of the pass at one of its root steps: its flat
// index and its fold — bit rid set iff row rid of the step passes the
// member's filter there and leads, through every linked step below, to
// rows that pass the member's filters there. A nil fold passes every
// row.
type rootUser struct {
	fi   int
	fold []uint64
}

// linkID names a link array in the engine's cache.
type linkID struct {
	parent, child buildID
	keyID         string
}

// linkArray resolves a linked step: to[parent row id] is the child row id
// plus one, 0 where the parent row has no match (or is dead); total says
// every live parent row has one.
type linkArray struct {
	to    []uint32
	total bool
}

// linksFor returns the link array of the linked step pb from parent's
// rows to child's, resolving it — one lookup per live parent row, in
// parallel like a scan, counted in ExecProbeLookups — unless the cached
// one was made from these very sources.
func (e *Engine) linksFor(parent, child *source, pb *Probe) *linkArray {
	id := linkID{parent.id, child.id, pb.KeyID}
	return e.cached(id, parent.token, child.token, func() any {
		la := &linkArray{to: make([]uint32, parent.nrows)}
		chunks := parent.chunks(e.morselTuples())
		var rows, misses atomic.Int64
		e.pool.ForEach(len(chunks), func(_, i int) {
			joined := make([][]byte, pb.From+1)
			n, miss := 0, 0
			parent.scan(chunks[i], func(rid uint32, tup []byte) {
				joined[pb.From] = tup
				to := child.find(pb.ProbeKey(nil, joined))
				la.to[rid] = to
				n++
				if to == 0 {
					miss++
				}
			})
			rows.Add(int64(n))
			misses.Add(int64(miss))
		})
		la.total = misses.Load() == 0
		if e.stats != nil {
			e.stats.ExecProbeLookups.Add(uint64(rows.Load()))
		}
		return la
	}).(*linkArray)
}

// compileForest turns the pass's cohorts into its step forest: every
// probe of every representative becomes (or joins) a step, every member
// gets its fold at each of its root steps, and every cohort learns what
// is left to do per surviving tuple.
func (e *Engine) compileForest(sg *scanGroup) {
	type stepKey struct {
		parent *step
		id     buildID
		keyID  string
	}
	seen := make(map[stepKey]*step)
	for ci, c := range sg.cohorts {
		rep := c.members[0]
		rep.steps = make([]*step, len(rep.q.Probes))
		for pi := range rep.q.Probes {
			pb := &rep.q.Probes[pi]
			st := &step{src: rep.lookups[pi].src, key: pb.ProbeKey}
			var parent *step
			if pb.KeyID != "" && pb.From >= 0 {
				parent = rep.steps[pb.From]
			}
			if pb.KeyID != "" && (parent == nil || parent.kind != tailStep) {
				k := stepKey{parent: parent, id: st.src.id, keyID: pb.KeyID}
				if shared := seen[k]; shared != nil {
					st = shared
				} else if seen[k] = st; parent == nil {
					st.kind, st.ord = rootStep, len(sg.roots)
					sg.roots = append(sg.roots, st)
				} else {
					st.kind, st.link = linkedStep, e.linksFor(parent.src, st.src, pb)
				}
			}
			rep.steps[pi] = st
		}
		c.planWalk()
		for mi, m := range c.members {
			m.steps = rep.steps
			for pi, st := range m.steps {
				if st.kind == rootStep {
					st.use(sg.off[ci]+mi, foldOf(m, pi))
				}
			}
		}
	}
}

// use records member fi's fold at the root step; a chain that holds the
// step twice must pass both folds.
func (st *step) use(fi int, fold []uint64) {
	if n := len(st.users); n > 0 && st.users[n-1].fi == fi {
		u := &st.users[n-1]
		switch {
		case u.fold == nil:
			u.fold = fold
		case fold != nil:
			both := slices.Clone(u.fold)
			for w := range both {
				both[w] &= fold[w]
			}
			u.fold = both
		}
		return
	}
	st.users = append(st.users, rootUser{fi, fold})
}

// foldOf folds member m's filters at probe pi and along every path of
// linked steps below it into one bitmap over the rows of pi's step; nil
// means every row passes. Only filters kept as bitmaps fold; one kept
// per hit (a source larger than the driver) is applied by the walk.
func foldOf(m *qplan, pi int) []uint64 {
	fold, own := m.lookups[pi].bits, false
	nrows := m.steps[pi].src.nrows
	for qi := pi + 1; qi < len(m.steps); qi++ {
		ch := m.steps[qi]
		if ch.kind != linkedStep || m.q.Probes[qi].From != pi {
			continue
		}
		cf := foldOf(m, qi)
		if cf == nil && ch.link.total {
			continue
		}
		if !own {
			// The filter's own bitmap belongs to the plan: narrow a copy.
			cp := make([]uint64, (nrows+63)>>6)
			if fold != nil {
				copy(cp, fold)
			} else {
				for w := range cp {
					cp[w] = ^uint64(0)
				}
				if tail := uint(nrows) & 63; tail != 0 {
					cp[len(cp)-1] = ^uint64(0) >> (64 - tail)
				}
			}
			fold, own = cp, true
		}
		for w, word := range fold {
			for ; word != 0; word &= word - 1 {
				j := bits.TrailingZeros64(word)
				if to := ch.link.to[w<<6+j]; to == 0 || (cf != nil && !hasBit(cf, to-1)) {
					fold[w] &^= 1 << uint(j)
				}
			}
		}
	}
	return fold
}

// planWalk decides what the cohort's surviving tuples still need (see
// cohort.walk); the representative's steps are set.
func (c *cohort) planWalk() {
	rep := c.members[0]
	c.needRow = make([]bool, len(rep.steps))
	c.perHit = make([]bool, len(rep.steps))
	// A tail step's key and a closure summand may read any joined row.
	all := false
	for _, st := range rep.steps {
		all = all || st.kind == tailStep
	}
	for ai := range rep.q.Aggs {
		all = all || (rep.q.Aggs[ai].Kind == Sum && !rep.q.Aggs[ai].colSet)
	}
	for _, gc := range rep.q.GroupBy {
		if gc.From >= 0 {
			c.needRow[gc.From] = true
		}
	}
	for pi, st := range rep.steps {
		for _, m := range c.members {
			if lk := &m.lookups[pi]; lk.pred != nil && (lk.bits == nil || st.kind == tailStep) {
				c.perHit[pi] = true
				c.needRow[pi] = c.needRow[pi] || lk.bits == nil
			}
		}
		c.needRow[pi] = c.needRow[pi] || all
		c.walk = c.walk || c.needRow[pi] || c.perHit[pi]
	}
}

// hull is a cohort's pushed-down predicate hull on one column: the
// interval outside which no member can match.
type hull struct {
	c      *cohort
	col    int
	lo, hi int64
}

// cohortHull finds a column every member filters on and returns the
// union of the members' intervals on it (per member, conjuncts on the
// column intersect). ok=false means the cohort has no common filtered
// column — it must ride in every scan pass.
func cohortHull(c *cohort) (h hull, ok bool) {
	common := map[int]bool{}
	for _, r := range c.members[0].ranges {
		common[r.Col] = true
	}
	for _, m := range c.members[1:] {
		has := map[int]bool{}
		for _, r := range m.ranges {
			if common[r.Col] {
				has[r.Col] = true
			}
		}
		common = has
	}
	col := -1
	for cc := range common {
		if col == -1 || cc < col {
			col = cc
		}
	}
	if col == -1 {
		return hull{}, false
	}
	h = hull{c: c, col: col, lo: math.MaxInt64, hi: math.MinInt64}
	for _, m := range c.members {
		mlo, mhi := int64(math.MinInt64), int64(math.MaxInt64)
		for _, r := range m.ranges {
			if r.Col == col {
				mlo, mhi = max(mlo, r.Lo), min(mhi, r.Hi)
			}
		}
		h.lo, h.hi = min(h.lo, mlo), max(h.hi, mhi)
	}
	return h, true
}

// splitFetchSlack is how much extra block fetching (relative to the
// single-pass union) a split into multiple passes may cost before the
// planner keeps one pass. Disjoint hulls over clustered data sum to
// roughly the union and split; unclustered data sums to ~k× and stays
// merged.
const splitFetchSlack = 1.15

// formScanGroups co-schedules cohorts into scan passes by predicate
// overlap. Cohorts filtering a common column are clustered by hull
// overlap; the clusters become separate passes only when the table's
// zone maps certify that the per-pass block skipping pays for the
// extra passes — a block skipped for a whole pass's cohorts is then
// fetched zero times instead of once for the combined batch. Anything
// without a usable hull rides in one residual pass, and any doubt
// (unwarmed synopses, no zone maps, overlapping hulls) collapses to a
// single shared pass.
func (e *Engine) formScanGroups(t *olap.Table, cohorts []*cohort) []*scanGroup {
	if len(cohorts) <= 1 {
		return []*scanGroup{newScanGroup(cohorts)}
	}
	// Hulls per cohort; pick the column filtered by the most cohorts as
	// the clustering axis.
	hulls := make([]hull, 0, len(cohorts))
	var rest []*cohort
	colVotes := map[int]int{}
	for _, c := range cohorts {
		if h, ok := cohortHull(c); ok {
			hulls = append(hulls, h)
			colVotes[h.col]++
		} else {
			rest = append(rest, c)
		}
	}
	axis, best := -1, 0
	for col, n := range colVotes {
		if n > best || (n == best && (axis == -1 || col < axis)) {
			axis, best = col, n
		}
	}
	if axis == -1 || best < 2 {
		return []*scanGroup{newScanGroup(cohorts)}
	}
	onAxis := hulls[:0]
	for _, h := range hulls {
		if h.col == axis {
			onAxis = append(onAxis, h)
		} else {
			rest = append(rest, h.c)
		}
	}
	// Sweep-merge overlapping hulls into clusters; order within a pass
	// follows hull order, so queries touching neighboring ranges run
	// adjacently even when the pass stays merged.
	slices.SortStableFunc(onAxis, func(a, b hull) int {
		switch {
		case a.lo != b.lo:
			if a.lo < b.lo {
				return -1
			}
			return 1
		case a.hi != b.hi:
			if a.hi < b.hi {
				return -1
			}
			return 1
		}
		return 0
	})
	type cluster struct {
		cohorts []*cohort
		lo, hi  int64
	}
	var clusters []cluster
	for _, h := range onAxis {
		if n := len(clusters); n > 0 && h.lo <= clusters[n-1].hi {
			cl := &clusters[n-1]
			cl.cohorts = append(cl.cohorts, h.c)
			cl.hi = max(cl.hi, h.hi)
		} else {
			clusters = append(clusters, cluster{cohorts: []*cohort{h.c}, lo: h.lo, hi: h.hi})
		}
	}
	if len(clusters) < 2 || len(rest) > 0 {
		// A residual pass would rescan every block anyway; extra passes
		// for the clustered cohorts could only add fetches.
		return []*scanGroup{newScanGroup(cohorts)}
	}
	// Cost check against the block synopses: splitting into k passes
	// fetches Σ frac_i of the blocks; one pass fetches the union. Split
	// only when the sum stays within splitFetchSlack of the union —
	// i.e. the data really is clustered on the axis and per-pass
	// skipping compounds.
	sum := 0.0
	for _, cl := range clusters {
		sum += t.MatchingBlockFrac([]olap.ColRange{{Col: axis, Lo: cl.lo, Hi: cl.hi}})
	}
	// The union is over-approximated by the clusters' combined hull —
	// exact enough for the split decision, one synopsis walk instead
	// of k.
	union := t.MatchingBlockFrac([]olap.ColRange{
		{Col: axis, Lo: clusters[0].lo, Hi: clusters[len(clusters)-1].hi}})
	if sum > splitFetchSlack*union {
		return []*scanGroup{newScanGroup(cohorts)}
	}
	groups := make([]*scanGroup, 0, len(clusters))
	for _, cl := range clusters {
		groups = append(groups, newScanGroup(cl.cohorts))
	}
	return groups
}

// AdmitBatch is the scheduler admission hook (Scheduler.SetAdmit): it
// estimates the batch's execution time from the per-phase histograms
// recorded over previous batches and returns the longest prefix whose
// estimate fits AdmitBudget, so one pathological dispatch round cannot
// blow the staleness bound the fleet router promises. The model is
// deliberately first-order — mean build-prepare time once, plus the
// historical scan time per query — and self-calibrating: whatever
// sharing and pruning saved in past batches is already in the
// histogram. With no budget, no attached stats or no history it admits
// everything (zero behavior change until data exists).
func (e *Engine) AdmitBatch(queries []*Query) int {
	n := len(queries)
	if e.AdmitBudget <= 0 || e.stats == nil || n <= 1 {
		return n
	}
	st := e.stats
	nq := st.Queries.Load()
	scanNS := st.ExecScan.Sum()
	if nq == 0 || scanNS <= 0 {
		return n
	}
	perQuery := float64(scanNS) / float64(nq)
	budget := float64(e.AdmitBudget) - st.ExecBuildPrepare.Mean()
	k := int(budget / perQuery)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}
