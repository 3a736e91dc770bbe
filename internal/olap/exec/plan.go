// The logical-plan layer (ROADMAP item 5): every Query is compiled
// into a qplan — the scan → predicate → join-chain → group-by/aggregate
// pipeline in executable form — before the batch planner (planner.go)
// compiles the pass's plans into one step forest. Keeping compilation
// separate from step sharing is what makes sharing semantically
// invisible: a query in a batch runs the same compiled kernels and
// lookups it would run alone, with the lookups it declares common made
// once.
package exec

import (
	"fmt"
	"math/bits"

	"batchdb/internal/olap"
	"batchdb/internal/storage"
)

// MaxGroupCols caps a query's GroupBy arity so group keys are exact
// fixed-size array map keys (no hashing collisions, no allocation per
// tuple). The CH-benCHmark query set groups by at most two columns.
const MaxGroupCols = 4

// groupKey is the fixed-size exact group-by key; only the first
// len(GroupBy) lanes are populated, the rest stay zero.
type groupKey [MaxGroupCols]int64

// GroupCol names one group-by column: From selects the tuple it is
// read from (-1 = the driver tuple, otherwise an index into
// Query.Probes selecting that probe's joined tuple) and Col the column
// ordinal in that table's schema. The column must be numeric; keys are
// compared in storage.Schema.OrdKey space.
type GroupCol struct {
	From int
	Col  int
}

// GroupResult is one group's aggregate outputs. Key holds the group-by
// columns' ord keys in GroupBy order (integer and time columns are
// their values; float columns are their order-preserving keys,
// storage.OrdKeyFloat64). Values and Rows
// mirror Result.Values / Result.Rows, restricted to the group.
type GroupResult struct {
	Key    []int64
	Values []float64
	Rows   int64
}

// SumCol is a Sum aggregate of the driver's numeric column col.
func SumCol(col int) AggSpec { return AggSpec{Kind: Sum, Col: col} }

// source is what a probe step looks rows up in, as one batch sees it:
// the pinned view of a table, probed through its PK index. Its rows
// carry dense ids — the slots of the partitions before the row's, plus
// its slot (dead slots keep their ids and are never found) — which is
// what lets a probe filter become a bitmap over the rows and a linked
// step a link array from parent row to child row. Ids are stable for
// one data version of the table: a slot never moves while its row
// lives, and two views at one version hold the same slots.
type source struct {
	t *olap.Table
	// version is the table's data version, for which the row ids hold.
	version uint64
	// base[i] is the id of slot 0 of t's partition i.
	base  []uint32
	nrows int
}

// newSource wraps the pinned view t of a table.
func newSource(t *olap.Table) *source {
	s := &source{t: t, version: t.Version(), base: make([]uint32, len(t.Partitions))}
	for i, p := range t.Partitions {
		s.base[i] = uint32(s.nrows)
		s.nrows += p.Slots()
	}
	return s
}

// locate returns the partition and slot of the row with id rid.
func (s *source) locate(rid uint32) (*olap.Partition, int32) {
	pi := len(s.base) - 1
	for s.base[pi] > rid {
		pi--
	}
	return s.t.Partitions[pi], int32(rid - s.base[pi])
}

// rowChunk is a run of a source's row ids: slots [lo, hi) of one
// partition, whose slot 0 has id base.
type rowChunk struct {
	part   *olap.Partition
	base   uint32
	lo, hi int
}

// chunks cuts the source's rows into runs of at most mt ids, so that
// per-row work over a source parallelizes the way scans do.
func (s *source) chunks(mt int) []rowChunk {
	var cs []rowChunk
	for pi, p := range s.t.Partitions {
		for lo, n := 0, p.Slots(); lo < n; lo += mt {
			cs = append(cs, rowChunk{part: p, base: s.base[pi], lo: lo, hi: min(lo+mt, n)})
		}
	}
	return cs
}

// eachVector calls fn with each vector of live slots of the chunk, up to
// len(slots) at a time.
func (c rowChunk) eachVector(slots []int32, fn func(slots []int32)) {
	for from := c.lo; from < c.hi; {
		var n int
		n, from = c.part.LiveSlots(c.hi, from, slots)
		if n > 0 {
			fn(slots[:n])
		}
	}
}

// lookup is one probe of one query resolved against the snapshot: the
// source its step looks rows up in, plus the probe's compiled key and
// filter.
type lookup struct {
	src   *source
	key   keyKernel
	where where
	// bits, when non-nil, is the filter evaluated once over every live
	// row of src: bit rid is the verdict for the row with id rid, and
	// the scan tests bits — folded along the step's path, see
	// planner.go — instead of evaluating the filter on each hit.
	bits []uint64
}

// evalOncePerRow fills lk.bits when that is the cheaper way to apply
// the filter: the source has at most as many rows as the driver has live
// tuples (driverLive), so evaluating every row — including rows no
// driver tuple reaches — costs no more than evaluating every hit could.
// A 5 000-row item table probed by 120 000 order lines is the common
// case; a source larger than its driver keeps per-hit evaluation. It
// returns the number of rows evaluated.
func (lk *lookup) evalOncePerRow(driverLive int) int {
	if len(lk.where) == 0 || lk.src.nrows > driverLive {
		return 0
	}
	lk.bits = make([]uint64, (lk.src.nrows+63)>>6)
	var slots [vecSize]int32
	var buf [vecSize]uint64
	n := 0
	for _, c := range lk.src.chunks(lk.src.nrows) {
		c.eachVector(slots[:], func(slots []int32) {
			n += len(slots)
			m := firstN(len(slots))
			lk.where.filter(c.part, slots, &m, buf[:])
			for wd, word := range m {
				for ; word != 0; word &= word - 1 {
					rid := c.base + uint32(slots[wd<<6+bits.TrailingZeros64(word)])
					lk.bits[rid>>6] |= 1 << (rid & 63)
				}
			}
		})
	}
	return n
}

// hasBit reports bit i of bm.
func hasBit(bm []uint64, i uint32) bool { return bm[i>>6]>>(i&63)&1 == 1 }

// groupCol is a GroupCol compiled: the column, in the driver tuple
// (from == -1) or in the row probe from matched.
type groupCol struct {
	from int
	col  column
}

// qplan is one query compiled against its driver table: predicate
// kernels and their synopsis form, resolved probe lookups, group-key
// and summand columns. The planner compiles a driver's plans into one
// step forest; the scan pass executes them.
type qplan struct {
	q *Query
	r *Result

	where  where
	ranges []olap.ColRange

	lookups []lookup

	// steps[pi] is the step of the pass's forest that probe pi runs as
	// (planner.go).
	steps []*step

	// What the scan still does per surviving tuple, after the root steps
	// and the folded bitmaps have decided which tuples survive (set by
	// planWalk): needRow[pi] asks for probe pi's matched row in
	// joined[pi], for a group-by column, and perHit[pi] says the filter
	// at pi is applied to the matched row there (it has no bitmap). walk
	// is false when neither is set anywhere: the tuple goes straight to
	// aggregation.
	walk            bool
	needRow, perHit []bool

	groups []groupCol
	// sums[ai] is the summand column of Sum aggregate ai.
	sums []column
}

// compilePlan lowers q to its executable form against driver table t
// (the pinned snapshot's view; live is its live-tuple count), resolving
// probes to the batch's sources. A nil return means the query failed to
// compile; its error is already recorded in r and the rest of the batch
// proceeds without it.
func (e *Engine) compilePlan(sv *olap.Snapshot, t *olap.Table, live int, q *Query, r *Result, srcs map[storage.TableID]*source) *qplan {
	p, err := compile(q, func(id storage.TableID) *storage.Schema {
		if s := srcs[id]; s != nil {
			return s.t.Schema
		}
		if id == t.Schema.ID {
			return t.Schema
		}
		return nil
	})
	if err != nil {
		r.Err = fmt.Errorf("exec: query %s: %w", q.Name, err)
		return nil
	}
	p.r = r
	if len(p.ranges) > 0 {
		// Record which columns this query filters on, so the next
		// quiesced window activates their block synopses — the first
		// scan runs unpruned, every later one skips blocks.
		t.RequestSynopses(p.ranges)
	}
	predEvals := 0
	for pi := range p.lookups {
		p.lookups[pi].src = srcs[q.Probes[pi].Table]
		predEvals += p.lookups[pi].evalOncePerRow(live)
	}
	if e.stats != nil {
		e.stats.ExecProbePredEvals.Add(uint64(predEvals))
	}
	return p
}

// Check compiles q against the schemas schemaOf returns (nil for an
// unknown table) and reports the first declaration that does not fit
// them, the error the engine fails the query with. Evaluators outside
// the engine (internal/baseline) run only what it accepts.
func (q *Query) Check(schemaOf func(storage.TableID) *storage.Schema) error {
	_, err := compile(q, schemaOf)
	return err
}

// compile lowers q to a plan whose lookups have no source yet.
func compile(q *Query, schemaOf func(storage.TableID) *storage.Schema) (*qplan, error) {
	p := &qplan{q: q}
	tables := []*storage.Schema{schemaOf(q.Driver)} // the driver, then each probe's table
	if tables[0] == nil {
		return nil, fmt.Errorf("unknown driver table %d", q.Driver)
	}
	var err error
	if p.where, p.ranges, err = compileWhere(tables[0], q.Where); err != nil {
		return nil, err
	}
	p.lookups = make([]lookup, len(q.Probes))
	for pi, pb := range q.Probes {
		ps := schemaOf(pb.Table)
		switch {
		case ps == nil:
			return nil, fmt.Errorf("probe %d into unknown table %d", pi, pb.Table)
		case pb.From < -1 || pb.From >= pi:
			return nil, fmt.Errorf("probe %d reads its key From %d, not an earlier probe or -1", pi, pb.From)
		}
		tables = append(tables, ps)
		lk := &p.lookups[pi]
		if lk.key, err = compileKey(tables[pb.From+1], pb.Key); err == nil {
			lk.where, _, err = compileWhere(ps, pb.Where)
		}
		if err != nil {
			return nil, fmt.Errorf("probe %d: %w", pi, err)
		}
	}
	if len(q.GroupBy) > MaxGroupCols {
		return nil, fmt.Errorf("groups by %d columns (max %d)", len(q.GroupBy), MaxGroupCols)
	}
	for _, gc := range q.GroupBy {
		if gc.From < -1 || gc.From >= len(q.Probes) {
			return nil, fmt.Errorf("group-by From %d out of probe range", gc.From)
		}
		c, err := columnOf(tables[gc.From+1], gc.Col, numerics...)
		if err != nil {
			return nil, fmt.Errorf("group-by: %w", err)
		}
		p.groups = append(p.groups, groupCol{gc.From, c})
	}
	p.sums = make([]column, len(q.Aggs))
	for ai, a := range q.Aggs {
		if a.Kind == Sum {
			if p.sums[ai], err = columnOf(tables[0], a.Col, numerics...); err != nil {
				return nil, fmt.Errorf("aggregate %d: %w", ai, err)
			}
		}
	}
	return p, nil
}
