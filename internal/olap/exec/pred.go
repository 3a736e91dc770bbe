// The declared forms of a query's parts and the vector kernels they
// compile to.
//
// Every part of a query is data, not code: a filter conjunct is a Pred
// (column ∘ constant), a probe key a list of KeyFields (columns of one
// row, shifted and ORed), a summand or group key a column ordinal. Each
// compiles against its table's schema to a kernel that knows the
// column's fixed offset in the tuple layout and runs over a vector of
// slots: one olap.Partition.ReadCol per column, then a call-free loop
// that compares, packs or sums. The numeric conjuncts also lower to
// olap.ColRange, so the morsel dispatcher can test them against
// per-block zone maps; they compare in the order-preserving int64 key
// space of storage.Schema.OrdKey, so kernel and synopsis verdicts can
// never disagree. String conjuncts and negations never prune.
package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"batchdb/internal/olap"
	"batchdb/internal/storage"
)

// Op enumerates the comparison operators CmpInt takes.
type Op uint8

// Comparison operators. BETWEEN has dedicated constructors.
const (
	EQ Op = iota
	LT
	LE
	GT
	GE
)

// PredKind says how a Pred tests its column.
type PredKind uint8

// Predicate kinds. The zero kind is no predicate: a zero Pred fails its
// query's compile.
const (
	_ PredKind = iota
	// IntRange: an Int64, Int32 or Time column in [Lo, Hi].
	IntRange
	// FloatRange: a Float64 column whose ord key is in [Lo, Hi].
	FloatRange
	// StrPrefix, StrEqual, StrContains: a String column (its NUL padding
	// trimmed, as storage.Schema.GetString trims it) starts with, equals
	// or contains Str.
	StrPrefix
	StrEqual
	StrContains
)

// Pred is one conjunct of a declared filter (Query.Where, Probe.Where,
// AND-lists). Build it with a constructor — CmpInt, BetweenInt,
// BetweenFloat, HasPrefix, EqualStr, Contains, Not; the fields
// are exported so that evaluators outside the engine (internal/baseline)
// can read the declaration.
type Pred struct {
	// Col is the column ordinal in the filtered table's schema.
	Col  int
	Kind PredKind
	// Lo, Hi is the accepted ord-key interval, inclusive (empty when
	// Lo > Hi).
	Lo, Hi int64
	// Str is the constant of a string kind.
	Str string
	// Not accepts exactly what the conjunct without it rejects.
	Not bool
}

// opInterval lowers (op, v) to the inclusive ord-key interval it
// accepts; ok is false for an unknown op. LT and GT step by one ord
// key, which is exact: integers step by 1, and adjacent float64s are
// adjacent ord keys.
func opInterval(op Op, v int64) (lo, hi int64, ok bool) {
	switch op {
	case EQ:
		return v, v, true
	case LT:
		if v == math.MinInt64 {
			return 1, 0, true // empty
		}
		return math.MinInt64, v - 1, true
	case LE:
		return math.MinInt64, v, true
	case GT:
		if v == math.MaxInt64 {
			return 1, 0, true // empty
		}
		return v + 1, math.MaxInt64, true
	case GE:
		return v, math.MaxInt64, true
	}
	return 0, 0, false
}

// CmpInt builds `col op v` over an Int64, Int32 or Time column. An
// unknown op builds a Pred that fails its query's compile.
func CmpInt(col int, op Op, v int64) Pred {
	lo, hi, ok := opInterval(op, v)
	if !ok {
		return Pred{Col: col}
	}
	return Pred{Col: col, Kind: IntRange, Lo: lo, Hi: hi}
}

// BetweenInt builds `lo <= col <= hi` over an Int64, Int32 or Time
// column.
func BetweenInt(col int, lo, hi int64) Pred {
	return Pred{Col: col, Kind: IntRange, Lo: lo, Hi: hi}
}

// BetweenFloat builds `lo <= col <= hi` over a Float64 column.
func BetweenFloat(col int, lo, hi float64) Pred {
	return Pred{Col: col, Kind: FloatRange, Lo: storage.OrdKeyFloat64(lo), Hi: storage.OrdKeyFloat64(hi)}
}

// HasPrefix builds `col LIKE 'prefix%'` over a String column.
func HasPrefix(col int, prefix string) Pred { return Pred{Col: col, Kind: StrPrefix, Str: prefix} }

// EqualStr builds `col = v` over a String column.
func EqualStr(col int, v string) Pred { return Pred{Col: col, Kind: StrEqual, Str: v} }

// Contains builds `col LIKE '%sub%'` over a String column.
func Contains(col int, sub string) Pred { return Pred{Col: col, Kind: StrContains, Str: sub} }

// Not negates p.
func Not(p Pred) Pred {
	p.Not = !p.Not
	return p
}

// MaxKeyFields caps a probe key's fields, so that a key declaration is
// a fixed-size value: the step forest and the link cache compare
// declarations as map keys. A TPC-C key has at most four.
const MaxKeyFields = 4

// KeyField is one field of a declared probe key (Probe.Key): column Col
// of the row the probe's From names, read as an integer (Int64, or
// Int32 sign-extended), shifted left by Shift; a key ORs its fields.
// With Mod > 0 the field is instead (Col · MulCol) mod Mod, as Go's
// int64 arithmetic computes it, then shifted: the CH-benCHmark's
// supplier of a stock row is MulMod(s_w_id, s_i_id, 10000).
type KeyField struct {
	Col    int
	Shift  uint8
	MulCol int
	Mod    int64
}

// KeyCol is the field "column col shifted left by shift".
func KeyCol(col int, shift uint8) KeyField { return KeyField{Col: col, Shift: shift} }

// MulMod is the field "(column a · column b) mod mod".
func MulMod(a, b int, mod int64) KeyField { return KeyField{Col: a, MulCol: b, Mod: mod} }

// --- compiled forms --------------------------------------------------------

// Column types by what may read them.
var (
	integers = []storage.Type{storage.Int64, storage.Int32}
	numerics = []storage.Type{storage.Int64, storage.Int32, storage.Time, storage.Float64}
)

// column is a column compiled against its schema: where its bytes sit
// in the tuple and how they read.
type column struct {
	off, size int
	typ       storage.Type
}

// columnOf compiles column col of s, which must be of one of types.
func columnOf(s *storage.Schema, col int, types ...storage.Type) (column, error) {
	if col < 0 || col >= len(s.Columns) || !slices.Contains(types, s.Columns[col].Type) {
		return column{}, fmt.Errorf("column %d of %s is not of a type in %v", col, s.Name, types)
	}
	return column{s.Offset(col), s.ColSize(col), s.Columns[col].Type}, nil
}

// ords turns raw column values, as olap.Partition.ReadCol reads them,
// into ord keys in place.
func (c column) ords(v []uint64) {
	switch c.typ {
	case storage.Int32:
		for i, x := range v {
			v[i] = uint64(int64(int32(uint32(x))))
		}
	case storage.Float64:
		for i, x := range v {
			v[i] = x ^ (uint64(int64(x)>>63) | 1<<63)
		}
	}
}

// ord is the column's ord key in one tuple: the one-row form of
// ReadCol and ords.
func (c column) ord(tup []byte) int64 {
	v := [1]uint64{uint64(binary.LittleEndian.Uint32(tup[c.off:]))}
	if c.size == 8 {
		v[0] = binary.LittleEndian.Uint64(tup[c.off:])
	}
	c.ords(v[:])
	return int64(v[0])
}

// floats turns raw column values into the float64s they hold.
func (c column) floats(v []uint64, out []float64) {
	switch c.typ {
	case storage.Float64:
		for i, x := range v {
			out[i] = math.Float64frombits(x)
		}
	case storage.Int32:
		for i, x := range v {
			out[i] = float64(int32(uint32(x)))
		}
	default:
		for i, x := range v {
			out[i] = float64(int64(x))
		}
	}
}

// predKernel is one conjunct compiled against its table's schema.
type predKernel struct {
	kind   PredKind
	col    column
	lo, hi int64
	str    []byte
	not    bool
}

func compilePred(s *storage.Schema, p Pred) (predKernel, error) {
	var types []storage.Type
	switch p.Kind {
	case IntRange:
		types = []storage.Type{storage.Int64, storage.Int32, storage.Time}
	case FloatRange:
		types = []storage.Type{storage.Float64}
	case StrPrefix, StrEqual, StrContains:
		types = []storage.Type{storage.String}
	}
	c, err := columnOf(s, p.Col, types...)
	if err != nil {
		return predKernel{}, fmt.Errorf("predicate of kind %d (zero: none): %w", p.Kind, err)
	}
	return predKernel{kind: p.Kind, col: c, lo: p.Lo, hi: p.Hi, str: []byte(p.Str), not: p.Not}, nil
}

// where is a compiled AND-list; the empty list accepts everything.
type where []predKernel

// compileWhere compiles an AND-list into its kernels plus the synopsis
// form pushed down to the partitions' block checks: every numeric
// conjunct that is not negated.
func compileWhere(s *storage.Schema, preds []Pred) (where, []olap.ColRange, error) {
	var ks where
	var ranges []olap.ColRange
	for _, p := range preds {
		k, err := compilePred(s, p)
		if err != nil {
			return nil, nil, err
		}
		ks = append(ks, k)
		if (p.Kind == IntRange || p.Kind == FloatRange) && !p.Not {
			ranges = append(ranges, olap.ColRange{Col: p.Col, Lo: p.Lo, Hi: p.Hi})
		}
	}
	return ks, ranges, nil
}

// filter clears in m the bit of every tuple of the vector — slot i of
// part at bit i — that a conjunct rejects; m has no bit past the vector.
// buf is scratch of at least len(slots).
func (w where) filter(part *olap.Partition, slots []int32, m *vmask, buf []uint64) {
	n := len(slots)
	for ki := range w {
		k := &w[ki]
		var got vmask
		switch k.kind {
		case IntRange, FloatRange:
			v := buf[:n]
			part.ReadCol(slots, k.col.off, k.col.size, v)
			k.col.ords(v)
			k.inRange(v, &got)
		default:
			for i, slot := range slots {
				if k.matchStr(part.Tuple(slot)) {
					got[i>>6] |= 1 << (uint(i) & 63)
				}
			}
		}
		var flip uint64
		if k.not {
			flip = ^uint64(0)
		}
		none := true
		for wd := range m {
			m[wd] &= got[wd] ^ flip
			none = none && m[wd] == 0
		}
		if none {
			return
		}
	}
}

// inRange sets in got the bits of the ord keys v that fall in the
// kernel's interval.
func (k *predKernel) inRange(v []uint64, got *vmask) {
	if k.lo > k.hi {
		return
	}
	lo, span := k.lo, uint64(k.hi-k.lo)
	for base := 0; base < len(v); base += 64 {
		var word uint64
		for j, x := range v[base:min(base+64, len(v))] {
			if uint64(int64(x)-lo) <= span {
				word |= 1 << uint(j)
			}
		}
		got[base>>6] = word
	}
}

// matchStr tests a string conjunct, without its negation, on one tuple.
func (k *predKernel) matchStr(tup []byte) bool {
	f := tup[k.col.off : k.col.off+k.col.size]
	end := len(f)
	for end > 0 && f[end-1] == 0 {
		end--
	}
	f = f[:end]
	switch k.kind {
	case StrPrefix:
		return bytes.HasPrefix(f, k.str)
	case StrEqual:
		return bytes.Equal(f, k.str)
	default:
		return bytes.Contains(f, k.str)
	}
}

// keySig is a key declaration as a comparable value: two probes whose
// parent rows, tables and keySigs are equal are one step.
type keySig struct {
	n      int
	fields [MaxKeyFields]KeyField
}

// keyField is one KeyField compiled against the schema of the row it
// reads.
type keyField struct {
	col, mul column
	shift    uint8
	mod      int64
}

// keyKernel is a compiled probe key.
type keyKernel struct {
	sig    keySig
	fields []keyField
}

// compileKey compiles a key declaration against the schema s of the row
// it reads.
func compileKey(s *storage.Schema, fields []KeyField) (keyKernel, error) {
	if len(fields) == 0 || len(fields) > MaxKeyFields {
		return keyKernel{}, fmt.Errorf("a probe key has 1 to %d fields, not %d", MaxKeyFields, len(fields))
	}
	k := keyKernel{sig: keySig{n: len(fields)}}
	for i, f := range fields {
		kf := keyField{shift: f.Shift, mod: f.Mod}
		var err error
		if kf.col, err = columnOf(s, f.Col, integers...); err == nil && f.Mod != 0 {
			kf.mul, err = columnOf(s, f.MulCol, integers...)
		}
		switch {
		case err != nil:
			return keyKernel{}, fmt.Errorf("key field %d: %w", i, err)
		case f.Shift > 63:
			return keyKernel{}, fmt.Errorf("key field %d shifts past bit 63", i)
		case f.Mod < 0:
			return keyKernel{}, fmt.Errorf("key field %d has a negative modulus", i)
		case f.Mod == 0:
			f.MulCol = 0 // not read
		}
		k.sig.fields[i] = f
		k.fields = append(k.fields, kf)
	}
	return k, nil
}

// vector computes the keys of a vector of tuples — slot i of part into
// keys[i] — one field at a time: a column read, then a call-free loop
// that sign-extends, multiplies, shifts and ORs. buf and mul are
// scratch of at least len(slots).
func (k *keyKernel) vector(part *olap.Partition, slots []int32, keys, buf, mul []uint64) {
	n := len(slots)
	keys, v, m := keys[:n], buf[:n], mul[:n]
	clear(keys)
	for _, f := range k.fields {
		part.ReadCol(slots, f.col.off, f.col.size, v)
		f.col.ords(v) // integers: their value
		if f.mod > 0 {
			part.ReadCol(slots, f.mul.off, f.mul.size, m)
			f.mul.ords(m)
			for i, x := range v {
				v[i] = uint64(int64(x) * int64(m[i]) % f.mod)
			}
		}
		for i, x := range v {
			keys[i] |= x << f.shift
		}
	}
}
