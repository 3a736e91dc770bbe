// Package storage defines schemas and the fixed-width binary tuple layout
// shared by both BatchDB replicas.
//
// BatchDB propagates transactional updates to the analytical replica as
// physical sub-tuple patches identified by a byte (Offset, Size) pair
// (paper §4, Fig. 3). That only works if both replicas agree on a stable
// physical layout, so tuples are fixed-width: every column has a static
// offset and size. Variable-length strings are stored in fixed-size,
// NUL-padded fields, as is common in main-memory TPC-C implementations.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Type enumerates the supported column types.
type Type uint8

// Supported column types. Time values are stored as int64 Unix
// nanoseconds; Float64 values as IEEE-754 bits.
const (
	Int64 Type = iota
	Int32
	Float64
	String
	Time
)

func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Int32:
		return "int32"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Time:
		return "time"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// fixedSize returns the storage size of t, or 0 if the size is
// per-column (String).
func (t Type) fixedSize() int {
	switch t {
	case Int64, Float64, Time:
		return 8
	case Int32:
		return 4
	default:
		return 0
	}
}

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
	// Size is the fixed byte width for String columns; ignored for
	// numeric types.
	Size int
}

// TableID identifies a relation across both replicas and on the wire.
type TableID uint16

// Schema describes a relation: its identity, columns and primary key.
type Schema struct {
	ID      TableID
	Name    string
	Columns []Column
	// Key lists the column ordinals forming the primary key. Packed into
	// a uint64 (KeyFunc), it keys the OLTP replica's primary index and is
	// each row's identity on the propagation wire and in the OLAP
	// replica's partition indexes, where the paper uses a hidden row
	// identifier (§5).
	Key []int

	offsets   []int
	tupleSize int
}

// NewSchema computes the physical layout for the given columns and
// validates the key. It panics on invalid definitions, which are
// programming errors.
func NewSchema(id TableID, name string, cols []Column, key []int) *Schema {
	s := &Schema{ID: id, Name: name, Columns: cols, Key: key}
	s.offsets = make([]int, len(cols))
	names := make(map[string]bool, len(cols))
	off := 0
	for i, c := range cols {
		size := c.Type.fixedSize()
		if c.Type == String {
			if c.Size <= 0 {
				panic(fmt.Sprintf("schema %s: string column %s needs a positive Size", name, c.Name))
			}
			size = c.Size
		}
		s.offsets[i] = off
		off += size
		if names[c.Name] {
			panic(fmt.Sprintf("schema %s: duplicate column %s", name, c.Name))
		}
		names[c.Name] = true
	}
	s.tupleSize = off
	for _, k := range key {
		if k < 0 || k >= len(cols) {
			panic(fmt.Sprintf("schema %s: key ordinal %d out of range", name, k))
		}
	}
	return s
}

// TupleSize returns the fixed byte width of one tuple.
func (s *Schema) TupleSize() int { return s.tupleSize }

// Offset returns the byte offset of column i within a tuple.
func (s *Schema) Offset(i int) int { return s.offsets[i] }

// ColSize returns the byte width of column i.
func (s *Schema) ColSize(i int) int {
	c := s.Columns[i]
	if c.Type == String {
		return c.Size
	}
	return c.Type.fixedSize()
}

// NewTuple allocates a zeroed tuple for this schema.
func (s *Schema) NewTuple() []byte { return make([]byte, s.tupleSize) }

// --- field accessors -------------------------------------------------

// GetInt64 reads column i of tup as int64.
func (s *Schema) GetInt64(tup []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(tup[s.offsets[i]:]))
}

// PutInt64 writes column i of tup.
func (s *Schema) PutInt64(tup []byte, i int, v int64) {
	binary.LittleEndian.PutUint64(tup[s.offsets[i]:], uint64(v))
}

// GetInt32 reads column i of tup as int32.
func (s *Schema) GetInt32(tup []byte, i int) int32 {
	return int32(binary.LittleEndian.Uint32(tup[s.offsets[i]:]))
}

// PutInt32 writes column i of tup.
func (s *Schema) PutInt32(tup []byte, i int, v int32) {
	binary.LittleEndian.PutUint32(tup[s.offsets[i]:], uint32(v))
}

// GetFloat64 reads column i of tup as float64.
func (s *Schema) GetFloat64(tup []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(tup[s.offsets[i]:]))
}

// PutFloat64 writes column i of tup.
func (s *Schema) PutFloat64(tup []byte, i int, v float64) {
	binary.LittleEndian.PutUint64(tup[s.offsets[i]:], math.Float64bits(v))
}

// GetString reads column i of tup, trimming NUL padding. The result is
// a copy the caller may keep.
func (s *Schema) GetString(tup []byte, i int) string {
	b := tup[s.offsets[i] : s.offsets[i]+s.Columns[i].Size]
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return string(b[:end])
}

// PutString writes column i of tup, truncating to the column width and
// NUL-padding the remainder.
func (s *Schema) PutString(tup []byte, i int, v string) {
	field := tup[s.offsets[i] : s.offsets[i]+s.Columns[i].Size]
	n := copy(field, v)
	for j := n; j < len(field); j++ {
		field[j] = 0
	}
}

// --- order-preserving keys -------------------------------------------

// Numeric reports whether t is a fixed-width type with a total order —
// the types eligible for zone-map synopses and range conjuncts. String
// columns are excluded (their conjuncts compile to string kernels and
// never prune).
func (t Type) Numeric() bool {
	switch t {
	case Int64, Int32, Float64, Time:
		return true
	}
	return false
}

// OrdKeyFloat64 maps a float64 to an int64 whose integer order matches
// IEEE-754 order: negative values have their bits inverted, positive
// values their sign bit flipped. Adjacent float64s map to adjacent
// int64s. (-0.0 orders just below +0.0 and NaNs sort at the extremes;
// generated benchmark data contains neither.)
func OrdKeyFloat64(f float64) int64 {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		u = ^u
	} else {
		u ^= 1 << 63
	}
	return int64(u)
}

// OrdKey reads column i of tup as an order-preserving int64 key:
// integer and time columns map to their value, Float64 columns go
// through OrdKeyFloat64. Zone-map synopses and compiled predicate
// kernels compare exclusively in this key space, so the two can never
// disagree about what a block may contain. Panics on String columns;
// callers gate on Type.Numeric.
func (s *Schema) OrdKey(tup []byte, i int) int64 {
	off := s.offsets[i]
	switch s.Columns[i].Type {
	case Int64, Time:
		return int64(binary.LittleEndian.Uint64(tup[off:]))
	case Int32:
		return int64(int32(binary.LittleEndian.Uint32(tup[off:])))
	case Float64:
		return OrdKeyFloat64(math.Float64frombits(binary.LittleEndian.Uint64(tup[off:])))
	default:
		panic(fmt.Sprintf("storage: OrdKey on non-numeric column %s.%s", s.Name, s.Columns[i].Name))
	}
}

// NumericColumns returns the ordinals of the synopsis-eligible columns,
// in schema order.
func (s *Schema) NumericColumns() []int {
	var out []int
	for i, c := range s.Columns {
		if c.Type.Numeric() {
			out = append(out, i)
		}
	}
	return out
}
