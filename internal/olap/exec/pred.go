// Declarative predicates and their compiled comparison kernels.
//
// A Pred describes one conjunct — column, operator, typed constant —
// instead of hiding it in an opaque closure. That buys two things:
// compile lowers the conjunct to a typed kernel that reads the column
// at its fixed offset in the tuple layout (no per-tuple schema
// dispatch), and the same conjunct is exported as an olap.ColRange so
// the morsel dispatcher can test it against per-block zone-map synopses
// and skip blocks that cannot satisfy it. Everything compares in the
// order-preserving int64 key space of storage.Schema.OrdKey, so kernel
// and synopsis verdicts can never disagree.
package exec

import (
	"fmt"
	"math"
	"slices"

	"batchdb/internal/olap"
	"batchdb/internal/storage"
)

// Op enumerates the comparison operators a Pred can carry.
type Op uint8

// Comparison operators. BETWEEN and IN have dedicated constructors.
const (
	EQ Op = iota
	LT
	LE
	GT
	GE
)

// Pred is one conjunct of a declarative predicate: column ∘ constant
// with ∘ ∈ {EQ, LT, LE, GT, GE}, plus BETWEEN and small IN via their
// own constructors. Predicates on a query (Query.Where, Probe.Where)
// form AND-lists; anything inexpressible — string matching,
// cross-column arithmetic — stays in the residual closures
// (Query.DriverPred, Probe.Pred), which are ANDed with the declarative
// part but never pushed down. Construct Preds with CmpInt / BetweenInt /
// BetweenFloat / InInt; the zero value accepts only ord-key 0 and is
// almost certainly not what you want.
type Pred struct {
	// Col is the column ordinal in the predicated table's schema.
	Col int

	// lo, hi is the accepted ord-key interval, inclusive (empty when
	// lo > hi). set, when non-nil, additionally requires membership
	// (IN-lists); lo/hi then hold the set's convex hull so synopsis
	// pruning still applies.
	lo, hi int64
	set    []int64
	// isFloat records which constructor family built the Pred; compile
	// checks it against the column's type.
	isFloat bool
}

// opInterval lowers (op, v) to the inclusive ord-key interval it
// accepts. LT and GT step by one ord key, which is exact: integers step
// by 1, and adjacent float64s are adjacent ord keys.
func opInterval(op Op, v int64) (lo, hi int64) {
	switch op {
	case EQ:
		return v, v
	case LT:
		if v == math.MinInt64 {
			return 1, 0 // empty
		}
		return math.MinInt64, v - 1
	case LE:
		return math.MinInt64, v
	case GT:
		if v == math.MaxInt64 {
			return 1, 0 // empty
		}
		return v + 1, math.MaxInt64
	case GE:
		return v, math.MaxInt64
	default:
		panic(fmt.Sprintf("exec: unknown Op %d", op))
	}
}

// CmpInt builds `col op v` over an Int64, Int32 or Time column.
func CmpInt(col int, op Op, v int64) Pred {
	lo, hi := opInterval(op, v)
	return Pred{Col: col, lo: lo, hi: hi}
}

// BetweenInt builds `lo <= col <= hi` over an Int64, Int32 or Time
// column.
func BetweenInt(col int, lo, hi int64) Pred {
	return Pred{Col: col, lo: lo, hi: hi}
}

// BetweenFloat builds `lo <= col <= hi` over a Float64 column.
func BetweenFloat(col int, lo, hi float64) Pred {
	return Pred{Col: col, lo: storage.OrdKeyFloat64(lo), hi: storage.OrdKeyFloat64(hi), isFloat: true}
}

// InInt builds `col IN vs` over an Int64, Int32 or Time column. Meant
// for small sets (membership is a linear scan); the set's convex hull
// is what zone maps prune on.
func InInt(col int, vs ...int64) Pred {
	if len(vs) == 0 {
		return Pred{Col: col, lo: 1, hi: 0, set: []int64{}}
	}
	slices.Sort(vs)
	return Pred{Col: col, lo: vs[0], hi: vs[len(vs)-1], set: vs}
}

// compilePred lowers p to a typed comparison kernel over tuples of s.
// The kernel is monomorphic per column type: one fixed-offset load, one
// inclusive interval test in ord-key space (IN adds a membership scan
// behind the interval prefilter).
func compilePred(s *storage.Schema, p Pred) (func(tup []byte) bool, error) {
	if p.Col < 0 || p.Col >= len(s.Columns) {
		return nil, fmt.Errorf("exec: predicate column %d out of range for table %s", p.Col, s.Name)
	}
	c := s.Columns[p.Col]
	if !c.Type.Numeric() {
		return nil, fmt.Errorf("exec: predicate on non-numeric column %s.%s (use the residual closure)", s.Name, c.Name)
	}
	if p.isFloat != (c.Type == storage.Float64) {
		return nil, fmt.Errorf("exec: predicate constant type does not match column %s.%s (%s)", s.Name, c.Name, c.Type)
	}
	col := p.Col
	lo, hi := p.lo, p.hi
	if p.set != nil {
		set := p.set
		return func(tup []byte) bool {
			v := s.OrdKey(tup, col)
			if v < lo || v > hi {
				return false
			}
			for _, m := range set {
				if v == m {
					return true
				}
			}
			return false
		}, nil
	}
	switch c.Type {
	case storage.Float64:
		g := s.GetFloat64
		return func(tup []byte) bool {
			v := storage.OrdKeyFloat64(g(tup, col))
			return v >= lo && v <= hi
		}, nil
	case storage.Int32:
		g := s.GetInt32
		return func(tup []byte) bool {
			v := int64(g(tup, col))
			return v >= lo && v <= hi
		}, nil
	default: // Int64, Time
		g := s.GetInt64
		return func(tup []byte) bool {
			v := g(tup, col)
			return v >= lo && v <= hi
		}, nil
	}
}

// compileWhere compiles an AND-list into a single kernel plus the
// synopsis form pushed down to the partitions' block checks. An empty
// list yields a nil kernel ("accept all") and no ranges.
func compileWhere(s *storage.Schema, preds []Pred) (func(tup []byte) bool, []olap.ColRange, error) {
	if len(preds) == 0 {
		return nil, nil, nil
	}
	kernels := make([]func([]byte) bool, len(preds))
	ranges := make([]olap.ColRange, len(preds))
	for i, p := range preds {
		k, err := compilePred(s, p)
		if err != nil {
			return nil, nil, err
		}
		kernels[i] = k
		// An IN-list prunes on its convex hull.
		ranges[i] = olap.ColRange{Col: p.Col, Lo: p.lo, Hi: p.hi}
	}
	if len(kernels) == 1 {
		return kernels[0], ranges, nil
	}
	return func(tup []byte) bool {
		for _, k := range kernels {
			if !k(tup) {
				return false
			}
		}
		return true
	}, ranges, nil
}

// DriverFilter compiles the query's declarative Where against the
// driver schema s and conjoins the residual DriverPred, returning the
// query's complete driver-tuple filter (nil accepts all). It lets
// out-of-engine evaluators — the single-instance baselines, reference
// computations in tests — apply exactly the predicate the engine pushes
// down.
func (q *Query) DriverFilter(s *storage.Schema) (func(tup []byte) bool, error) {
	k, _, err := compileWhere(s, q.Where)
	if err != nil {
		return nil, err
	}
	return andPred(k, q.DriverPred), nil
}

// Filter compiles the probe's declarative Where against the probed,
// PK-indexed table's schema s and conjoins the residual Pred (nil accepts all).
func (p *Probe) Filter(s *storage.Schema) (func(tup []byte) bool, error) {
	k, _, err := compileWhere(s, p.Where)
	if err != nil {
		return nil, err
	}
	return andPred(k, p.Pred), nil
}

// andPred conjoins two optional filters; nil means "accept all".
func andPred(a, b func(tup []byte) bool) func(tup []byte) bool {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(tup []byte) bool { return a(tup) && b(tup) }
}
