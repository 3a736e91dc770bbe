// The logical-plan layer (ROADMAP item 5): every Query is compiled
// into a qplan — the scan → predicate → join-chain → group-by/aggregate
// pipeline in executable form — before the batch planner (planner.go)
// compiles the pass's plans into one step forest. Keeping compilation
// separate from step sharing is what makes sharing semantically
// invisible: a query in a batch runs the same compiled kernels, lookups
// and extractors it would run alone, with the lookups it declares
// common made once.
package exec

import (
	"fmt"

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
// their values; float columns are their order-preserving keys —
// storage.Float64FromOrdKey recovers the float). Values and Rows
// mirror Result.Values / Result.Rows, restricted to the group.
type GroupResult struct {
	Key    []int64
	Values []float64
	Rows   int64
}

// SumCol builds the declarative form of a Sum aggregate: the summand
// is driver column col, read by a typed kernel compiled against the
// driver schema instead of a closure.
func SumCol(col int) AggSpec {
	return AggSpec{Kind: Sum, col: col, colSet: true}
}

// Summand returns the aggregate's summand extractor over a (driver,
// joined) tuple combination: the Value closure when set, otherwise a
// typed kernel compiled against driver schema s for a declarative
// SumCol. Count aggregates return nil. External executors (the
// single-system baseline) use this so declarative and closure
// aggregates evaluate identically everywhere.
func (a AggSpec) Summand(s *storage.Schema) (func(driver []byte, joined [][]byte) float64, error) {
	if a.Kind == Count {
		return nil, nil
	}
	if !a.colSet {
		if a.Value == nil {
			return nil, fmt.Errorf("exec: Sum aggregate needs Value or SumCol")
		}
		return a.Value, nil
	}
	fn, err := compileColValue(s, a.col)
	if err != nil {
		return nil, err
	}
	return func(driver []byte, _ [][]byte) float64 { return fn(driver) }, nil
}

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

// find returns the id of the row stored under key, plus one; 0 is a miss.
func (s *source) find(key uint64) uint32 {
	part, slot, ok := s.t.FindPK(key)
	if !ok {
		return 0
	}
	return s.base[part] + uint32(slot) + 1
}

// row returns the tuple with id rid.
func (s *source) row(rid uint32) []byte {
	pi := len(s.base) - 1
	for s.base[pi] > rid {
		pi--
	}
	return s.t.Partitions[pi].Tuple(int32(rid - s.base[pi]))
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

// scan calls fn for every live row of the chunk with its id and tuple.
func (s *source) scan(c rowChunk, fn func(rid uint32, tup []byte)) {
	var slots [256]int32
	for from := c.lo; from < c.hi; {
		var n int
		n, from = c.part.LiveSlots(c.hi, from, slots[:])
		for _, slot := range slots[:n] {
			fn(c.base+uint32(slot), c.part.Tuple(slot))
		}
	}
}

// lookup is one probe of one query resolved against the snapshot: the
// source its step looks rows up in, plus the probe's compiled filter.
type lookup struct {
	src  *source
	pred func(tup []byte) bool
	// bits, when non-nil, is pred evaluated once over every live row of
	// src: bit rid is the verdict for src.row(rid), and the scan tests
	// bits — folded along the step's path, see planner.go — instead of
	// calling pred on each hit.
	bits []uint64
}

// evalOncePerRow fills lk.bits when that is the cheaper way to apply
// the filter: the source has at most as many rows as the driver has live
// tuples (driverLive), so evaluating every row — including rows no
// driver tuple reaches — costs no more than evaluating every hit could.
// A 5 000-row item table probed by 120 000 order lines is the common
// case; a source larger than its driver keeps per-hit evaluation. It
// returns the number of evaluations made.
func (lk *lookup) evalOncePerRow(driverLive int) int {
	if lk.pred == nil || lk.src.nrows > driverLive {
		return 0
	}
	lk.bits = make([]uint64, (lk.src.nrows+63)>>6)
	n := 0
	for _, c := range lk.src.chunks(lk.src.nrows) {
		lk.src.scan(c, func(rid uint32, tup []byte) {
			n++
			if lk.pred(tup) {
				lk.bits[rid>>6] |= 1 << (rid & 63)
			}
		})
	}
	return n
}

// hasBit reports bit i of bm.
func hasBit(bm []uint64, i uint32) bool { return bm[i>>6]>>(i&63)&1 == 1 }

// qplan is one query compiled against its driver table: predicate
// kernels and their synopsis form, resolved probe lookups, group-key
// and aggregate extractors. The planner compiles a driver's plans into
// one step forest; the scan pass executes them.
type qplan struct {
	q *Query
	r *Result

	kernel func(tup []byte) bool
	ranges []olap.ColRange

	lookups []lookup

	// steps[pi] is the step of the pass's forest that probe pi runs as
	// (planner.go).
	steps []*step

	// What the scan still does per surviving tuple, after the root steps
	// and the folded bitmaps have decided which tuples survive (set by
	// planWalk): needRow[pi] asks for probe pi's matched row in
	// joined[pi] — a group-by column, a closure summand, a tail step's
	// key or a per-hit filter reads it — and perHit[pi] says a filter is
	// still to apply at pi. walk is false when neither is set anywhere:
	// the tuple goes straight to aggregation.
	walk            bool
	needRow, perHit []bool

	// groupOf extracts each GroupBy column's ord key from the surviving
	// (driver, joined) combination, in GroupBy order.
	groupOf []func(driver []byte, joined [][]byte) int64

	// aggOf extracts each Sum aggregate's summand (nil for Count).
	aggOf []func(driver []byte, joined [][]byte) float64
}

// compilePlan lowers q to its executable form against driver table t
// (the pinned snapshot's view; live is its live-tuple count), resolving
// probes to the batch's sources. A nil return means the query failed to
// compile; its error is already recorded in r and the rest of the batch
// proceeds without it.
func (e *Engine) compilePlan(sv *olap.Snapshot, t *olap.Table, live int, q *Query, r *Result, srcs map[storage.TableID]*source) *qplan {
	p := &qplan{q: q, r: r}
	k, rg, err := compileWhere(t.Schema, q.Where)
	if err != nil {
		r.Err = err
		return nil
	}
	p.kernel, p.ranges = k, rg
	if len(rg) > 0 {
		// Record which columns this query filters on, so the next
		// quiesced window activates their block synopses — the first
		// scan runs unpruned, every later one skips blocks.
		t.RequestSynopses(rg)
	}

	p.lookups = make([]lookup, len(q.Probes))
	predEvals := 0
	for pi := range q.Probes {
		pb := &q.Probes[pi]
		pt := sv.Table(pb.Table)
		if pt == nil {
			r.Err = fmt.Errorf("exec: probe into unknown table %d", pb.Table)
			return nil
		}
		if pb.KeyID != "" && (pb.From < -1 || pb.From >= pi) {
			r.Err = fmt.Errorf("exec: query %s probe %d declares its key From %d, not an earlier probe or -1", q.Name, pi, pb.From)
			return nil
		}
		wherePred, _, err := compileWhere(pt.Schema, pb.Where)
		if err != nil {
			r.Err = err
			return nil
		}
		lk := lookup{src: srcs[pb.Table], pred: andPred(wherePred, pb.Pred)}
		predEvals += lk.evalOncePerRow(live)
		p.lookups[pi] = lk
	}
	if e.stats != nil {
		e.stats.ExecProbePredEvals.Add(uint64(predEvals))
	}

	if len(q.GroupBy) > MaxGroupCols {
		r.Err = fmt.Errorf("exec: query %s groups by %d columns (max %d)", q.Name, len(q.GroupBy), MaxGroupCols)
		return nil
	}
	for _, gc := range q.GroupBy {
		fn, err := e.compileGroupCol(sv, t, q, gc)
		if err != nil {
			r.Err = err
			return nil
		}
		p.groupOf = append(p.groupOf, fn)
	}

	p.aggOf = make([]func([]byte, [][]byte) float64, len(q.Aggs))
	for ai := range q.Aggs {
		a := &q.Aggs[ai]
		if a.Kind == Count {
			continue
		}
		if a.colSet {
			fn, err := compileColValue(t.Schema, a.col)
			if err != nil {
				r.Err = fmt.Errorf("exec: query %s aggregate %d: %w", q.Name, ai, err)
				return nil
			}
			p.aggOf[ai] = func(driver []byte, _ [][]byte) float64 { return fn(driver) }
			continue
		}
		if a.Value == nil {
			r.Err = fmt.Errorf("exec: query %s aggregate %d: Sum needs Value or SumCol", q.Name, ai)
			return nil
		}
		p.aggOf[ai] = a.Value
	}
	return p
}

// compileGroupCol lowers one group-by column to an ord-key extractor.
func (e *Engine) compileGroupCol(sv *olap.Snapshot, t *olap.Table, q *Query, gc GroupCol) (func(driver []byte, joined [][]byte) int64, error) {
	var s *storage.Schema
	if gc.From == -1 {
		s = t.Schema
	} else {
		if gc.From < 0 || gc.From >= len(q.Probes) {
			return nil, fmt.Errorf("exec: query %s group-by From %d out of probe range", q.Name, gc.From)
		}
		pt := sv.Table(q.Probes[gc.From].Table)
		if pt == nil {
			return nil, fmt.Errorf("exec: query %s group-by probes unknown table %d", q.Name, q.Probes[gc.From].Table)
		}
		s = pt.Schema
	}
	if gc.Col < 0 || gc.Col >= len(s.Columns) || !s.Columns[gc.Col].Type.Numeric() {
		return nil, fmt.Errorf("exec: query %s group-by column %d is not a numeric column of %s", q.Name, gc.Col, s.Name)
	}
	col, from := gc.Col, gc.From
	if from == -1 {
		return func(driver []byte, _ [][]byte) int64 { return s.OrdKey(driver, col) }, nil
	}
	return func(_ []byte, joined [][]byte) int64 { return s.OrdKey(joined[from], col) }, nil
}

// compileColValue lowers a declarative summand column to a typed
// float64 reader over driver tuples.
func compileColValue(s *storage.Schema, col int) (func(tup []byte) float64, error) {
	if col < 0 || col >= len(s.Columns) || !s.Columns[col].Type.Numeric() {
		return nil, fmt.Errorf("column %d is not a numeric column of %s", col, s.Name)
	}
	switch s.Columns[col].Type {
	case storage.Float64:
		g := s.GetFloat64
		return func(tup []byte) float64 { return g(tup, col) }, nil
	case storage.Int32:
		g := s.GetInt32
		return func(tup []byte) float64 { return float64(g(tup, col)) }, nil
	default: // Int64, Time
		g := s.GetInt64
		return func(tup []byte) float64 { return float64(g(tup, col)) }, nil
	}
}
