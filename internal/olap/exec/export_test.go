package exec

import (
	"batchdb/internal/olap"
	"batchdb/internal/storage"
)

// Entry points into the vector kernels for the external test package,
// which holds them to internal/baseline's scalar evaluator (kernel_test.go).

// FilterVector runs the AND-list preds, compiled against s, over the
// tuples of part at slots, the way a scan does, and reports each
// tuple's verdict.
func FilterVector(s *storage.Schema, preds []Pred, part *olap.Partition, slots []int32) (vec []bool, err error) {
	w, _, err := compileWhere(s, preds)
	if err != nil {
		return nil, err
	}
	m := firstN(len(slots))
	var buf [vecSize]uint64
	w.filter(part, slots, &m, buf[:])
	for i := range slots {
		vec = append(vec, m[i>>6]>>(uint(i)&63)&1 == 1)
	}
	return vec, nil
}

// KeysVector computes the declared key over the tuples of part at slots,
// the way a root step or a link array does.
func KeysVector(s *storage.Schema, key []KeyField, part *olap.Partition, slots []int32) ([]uint64, error) {
	k, err := compileKey(s, key)
	if err != nil {
		return nil, err
	}
	var keys, buf, mul [vecSize]uint64
	k.vector(part, slots, keys[:], buf[:], mul[:])
	return keys[:len(slots)], nil
}

// ColumnVector reads numeric column col over the tuples of part at
// slots as the aggregation does: the summands and the ord keys.
func ColumnVector(s *storage.Schema, col int, part *olap.Partition, slots []int32) ([]float64, []int64, error) {
	c, err := columnOf(s, col, numerics...)
	if err != nil {
		return nil, nil, err
	}
	raw, floats, ords := make([]uint64, len(slots)), make([]float64, len(slots)), make([]int64, len(slots))
	part.ReadCol(slots, c.off, c.size, raw)
	c.floats(raw, floats)
	c.ords(raw)
	for i, x := range raw {
		ords[i] = int64(x)
	}
	return floats, ords, nil
}
