// The batch planner (ROADMAP item 5, paper §5's open MQJoin/SharedDB
// direction): every compiled query of one driver table is its own
// pipeline, and the batch makes one morsel pass over the driver. What
// the queries share is their *steps*: the pass's plans compile into one
// step forest (compileForest), so a lookup is made once per driver tuple
// for every query that needs it, whatever its template, and a step whose
// key is a function of a row already matched is resolved once per such
// row, not per tuple. Step sharing is opt-in via Probe.KeyID and
// otherwise purely structural, so a batch with zero overlap degenerates
// to disjoint steps in one pass.
package exec

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"batchdb/internal/storage"
)

// scanGroup is the one morsel pass over a driver table: the plans it
// evaluates, in batch order.
type scanGroup struct {
	plans []*qplan
	// roots are the pass's root steps, in the order the scan runs them
	// (compileForest).
	roots []*step
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
//     child row id — cached for as long as both tables keep their data
//     version. The scan never looks it up: each query's filters along a
//     path of linked steps fold into one bitmap over the root's rows
//     (foldOf), and the rows themselves are reached through the links
//     only for tuples that survive;
//   - a tail step is a probe that declares nothing (or hangs off one):
//     nobody shares it, and it runs per surviving tuple of its query, in
//     chain order.
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
	// pass's queries whose chains hold the step.
	ord   int
	users []rootUser

	// Linked steps: the link array from the parent step's rows.
	link *linkArray
}

// rootUser is one query of the pass at one of its root steps: its index
// in scanGroup.plans and its fold — bit rid set iff row rid of the step
// passes the query's filter there and leads, through every linked step
// below, to rows that pass the query's filters there. A nil fold passes
// every row.
type rootUser struct {
	qi   int
	fold []uint64
}

// linkID names a link array in the engine's cache.
type linkID struct {
	parent, child storage.TableID
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
	id := linkID{parent.t.Schema.ID, child.t.Schema.ID, pb.KeyID}
	return e.cached(id, parent.version, child.version, func() *linkArray {
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
	})
}

// compileForest turns the pass's plans into its step forest: every
// probe of every plan becomes (or joins) a step, every plan gets its fold
// at each of its root steps and learns what is left to do per surviving
// tuple.
func (e *Engine) compileForest(sg *scanGroup) {
	type stepKey struct {
		parent *step
		id     storage.TableID
		keyID  string
	}
	seen := make(map[stepKey]*step)
	for qi, p := range sg.plans {
		p.steps = make([]*step, len(p.q.Probes))
		for pi := range p.q.Probes {
			pb := &p.q.Probes[pi]
			st := &step{src: p.lookups[pi].src, key: pb.ProbeKey}
			var parent *step
			if pb.KeyID != "" && pb.From >= 0 {
				parent = p.steps[pb.From]
			}
			if pb.KeyID != "" && (parent == nil || parent.kind != tailStep) {
				k := stepKey{parent: parent, id: st.src.t.Schema.ID, keyID: pb.KeyID}
				if shared := seen[k]; shared != nil {
					st = shared
				} else if seen[k] = st; parent == nil {
					st.kind, st.ord = rootStep, len(sg.roots)
					sg.roots = append(sg.roots, st)
				} else {
					st.kind, st.link = linkedStep, e.linksFor(parent.src, st.src, pb)
				}
			}
			p.steps[pi] = st
		}
		p.planWalk()
		for pi, st := range p.steps {
			if st.kind == rootStep {
				st.use(qi, foldOf(p, pi))
			}
		}
	}
}

// use records query qi's fold at the root step; a chain that holds the
// step twice must pass both folds.
func (st *step) use(qi int, fold []uint64) {
	if n := len(st.users); n > 0 && st.users[n-1].qi == qi {
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
	st.users = append(st.users, rootUser{qi, fold})
}

// foldOf folds query m's filters at probe pi and along every path of
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

// planWalk decides what the plan's surviving tuples still need (see
// qplan.walk); its steps are set.
func (p *qplan) planWalk() {
	p.needRow = make([]bool, len(p.steps))
	p.perHit = make([]bool, len(p.steps))
	// A tail step's key and a closure summand may read any joined row.
	all := false
	for _, st := range p.steps {
		all = all || st.kind == tailStep
	}
	for ai := range p.q.Aggs {
		all = all || (p.q.Aggs[ai].Kind == Sum && !p.q.Aggs[ai].colSet)
	}
	for _, gc := range p.q.GroupBy {
		if gc.From >= 0 {
			p.needRow[gc.From] = true
		}
	}
	for pi, st := range p.steps {
		if lk := &p.lookups[pi]; lk.pred != nil && (lk.bits == nil || st.kind == tailStep) {
			p.perHit[pi] = true
			p.needRow[pi] = p.needRow[pi] || lk.bits == nil
		}
		p.needRow[pi] = p.needRow[pi] || all
		p.walk = p.walk || p.needRow[pi] || p.perHit[pi]
	}
}
