package olap

import (
	"encoding/binary"
	"math"
	"math/bits"

	"batchdb/internal/storage"
)

// ColRange is a pushed-down predicate conjunct in synopsis form: the
// tuple's column Col must fall in [Lo, Hi], inclusive, in the
// order-preserving key space of storage.Schema.OrdKey. The executor
// lowers every declarative predicate to one ColRange per conjunct
// before asking partitions which slot blocks might match; a block whose [min, max] misses any conjunct's
// interval cannot contain a qualifying tuple.
type ColRange struct {
	Col    int
	Lo, Hi int64
}

// maxSynopsisCols caps the per-block bookkeeping (and lets the dirty
// set be one uint64 bitmask per block). Schemas with more numeric
// columns keep synopses for the first 64 in schema order.
const maxSynopsisCols = 64

// colSyn is one (block, column) synopsis: the bounds plus their
// support counts — how many live tuples attain each bound. Empty
// blocks carry the (MaxInt64, MinInt64) empty-interval sentinel.
// Packing all four into one struct keeps a maintenance step to a
// single bounds-checked access on one cache line.
type colSyn struct {
	min, max       int64
	minCnt, maxCnt int32
}

// zoneMap holds a partition's per-block synopses: min/max per numeric
// column plus a live-tuple count for every block-aligned slot range.
// Exclusive apply/scan phases (see the package comment) make
// maintenance race-free and cheap: all mutation happens during
// ApplyPending, single-goroutine per partition, never during a query.
//
// Bounds carry a support count. Inserts widen in place; a patch or
// delete that removes a bound's value only decrements its support, and
// the bound goes loose (stale but still sound, since in-place bounds
// only ever widen) when support reaches zero. Only then is the column
// scheduled for exact recomputation in ResummarizeDirty, so monotone
// update patterns — counters growing past the max, delivery dates
// filling in above a well-supported minimum — never trigger a rescan.
//
// Synopses are maintained lazily, per column: a column's bounds only
// exist once a query has pushed a predicate on it (the executor
// records interest at compile time, Table.RequestSynopses) and the
// next quiesced window activated it with one exact column scan. The
// per-entry maintenance cost therefore scales with the handful of
// columns the workload actually filters on, not the schema width —
// that is what keeps the warm-apply overhead inside its budget on
// wide relations like order_line.
type zoneMap struct {
	block int  // slots per block; always a power of two
	shift uint // log2(block): the hot paths shift, never divide
	cols  []int
	// colPos maps schema ordinal -> index into cols (-1 = ineligible).
	colPos []int
	// offs/ends/types cache each synopsis column's byte range and
	// ord-key decoder so per-entry maintenance avoids schema lookups.
	offs, ends []int
	types      []storage.Type
	// active is the bitmask (over cols indices) of activated columns;
	// actCols packs the same set's cached layout for the maintenance
	// loops (one load per column instead of three indexed ones).
	// Inactive columns keep their empty-interval sentinels and are
	// ignored by both maintenance and RangeMayMatch.
	active  uint64
	actCols []actCol
	// syn holds block b's synopsis for column cols[ci] at
	// [b*len(cols)+ci].
	syn  []colSyn
	live []int32
	// dirtyCols[b] is the bitmask of columns whose bounds went loose in
	// block b; ResummarizeDirty rescans exactly those column slices.
	dirtyCols []uint64
	anyDirty  bool
	// scratch backs zmPatchSlot's overlapped-column records. Partition
	// mutation is single-goroutine (apply step 3 runs one goroutine per
	// partition), so reuse is safe.
	scratch []patchTouch
}

type patchTouch struct {
	ci  int // index into zoneMap.cols
	old int64
}

// actCol is one activated column's cached layout: its byte range, its
// ord-key decoder and its index into the synopsis column list.
type actCol struct {
	off, end int32
	ci       int32
	typ      storage.Type
}

// EnableZoneMap attaches per-block synopses with blockTuples slots per
// block. Only block live counts are derived eagerly; column bounds
// materialize lazily when ActivateSynopsisCols first activates a
// queried column. The size is rounded down to a power of two (so
// maintenance shifts instead of dividing); align it with the
// executor's MorselTuples — itself a power of two by default — so
// block verdicts map one-to-one onto morsels. blockTuples <= 0, or a
// schema with no numeric columns, disables the map. Must run in a
// quiesced window (wiring or apply).
func (p *Partition) EnableZoneMap(blockTuples int) {
	cols := p.schema.NumericColumns()
	if blockTuples <= 0 || len(cols) == 0 {
		p.zm = nil
		return
	}
	if len(cols) > maxSynopsisCols {
		cols = cols[:maxSynopsisCols]
	}
	shift := uint(bits.Len(uint(blockTuples))) - 1
	colPos := make([]int, len(p.schema.Columns))
	for i := range colPos {
		colPos[i] = -1
	}
	z := &zoneMap{
		block: 1 << shift, shift: shift, cols: cols, colPos: colPos,
		offs: make([]int, len(cols)), ends: make([]int, len(cols)),
		types: make([]storage.Type, len(cols)),
	}
	for ci, c := range cols {
		colPos[c] = ci
		z.offs[ci] = p.schema.Offset(c)
		z.ends[ci] = z.offs[ci] + p.schema.ColSize(c)
		z.types[ci] = p.schema.Columns[c].Type
	}
	p.zm = z
	z.grow(len(p.alive))
	for b := range z.live {
		lo, hi := p.blockSlots(b)
		n := int32(0)
		for i := lo; i < hi; i++ {
			if p.alive[i] {
				n++
			}
		}
		z.live[b] = n
	}
}

// ActivateSynopsisCols materializes bounds for the requested columns
// (a bitmask over the synopsis column list) with one exact scan per
// newly activated column, and adds them to the maintained set. Already
// active or out-of-range bits are ignored. The partition must be
// exclusively the caller's; an apply round activates every requested
// column on each partition it touches, before applying entries.
func (p *Partition) ActivateSynopsisCols(wanted uint64) {
	z := p.zm
	if z == nil {
		return
	}
	if n := len(z.cols); n < 64 {
		wanted &= 1<<uint(n) - 1
	}
	mask := wanted &^ z.active
	if mask == 0 {
		return
	}
	for b := range z.live {
		p.recomputeBlockCols(b, mask)
	}
	z.active |= mask
	z.actCols = z.actCols[:0]
	for ci := range z.cols {
		if z.active&(1<<uint(ci)) != 0 {
			z.actCols = append(z.actCols, actCol{
				off: int32(z.offs[ci]), end: int32(z.ends[ci]),
				ci: int32(ci), typ: z.types[ci],
			})
		}
	}
}

// grow extends the block arrays to cover nslots slots.
func (z *zoneMap) grow(nslots int) {
	need := (nslots + z.block - 1) >> z.shift
	for nb := len(z.live); nb < need; nb++ {
		for range z.cols {
			z.syn = append(z.syn, colSyn{min: math.MaxInt64, max: math.MinInt64})
		}
		z.live = append(z.live, 0)
		z.dirtyCols = append(z.dirtyCols, 0)
	}
}

// key extracts column ci's order-preserving key from a tuple using the
// cached layout (the hot path of every maintenance operation).
func (z *zoneMap) key(tup []byte, ci int) int64 {
	return ordKeyAt(tup, z.offs[ci], z.types[ci])
}

// ordKeyAt decodes one order-preserving key from a cached (offset,
// type) pair; the maintenance loops call it with actCol layouts.
func ordKeyAt[T int | int32](tup []byte, off T, typ storage.Type) int64 {
	switch typ {
	case storage.Float64:
		return storage.OrdKeyFloat64(math.Float64frombits(binary.LittleEndian.Uint64(tup[off:])))
	case storage.Int32:
		return int64(int32(binary.LittleEndian.Uint32(tup[off:])))
	default: // Int64, Time
		return int64(binary.LittleEndian.Uint64(tup[off:]))
	}
}

// admit folds one live value into the bound/support pair at bi.
func (z *zoneMap) admit(bi int, k int64) {
	s := &z.syn[bi]
	if k < s.min {
		s.min, s.minCnt = k, 1
	} else if k == s.min {
		s.minCnt++
	}
	if k > s.max {
		s.max, s.maxCnt = k, 1
	} else if k == s.max {
		s.maxCnt++
	}
}

// zmInsert widens block bounds for the freshly written slot. Inserts
// can only widen or support existing bounds, so the block stays exact.
func (p *Partition) zmInsert(slot int32) {
	z := p.zm
	b := int(slot) >> z.shift
	if b >= len(z.live) {
		z.grow(len(p.alive))
	}
	z.live[b]++
	if len(z.actCols) == 0 {
		return
	}
	tup := p.data[int(slot)*p.tupleSize:][:p.tupleSize]
	base := b * len(z.cols)
	for _, c := range z.actCols {
		z.admit(base+int(c.ci), ordKeyAt(tup, c.off, c.typ))
	}
}

// zmPatchSlot performs PatchSlot's copy while maintaining the slot's
// block synopsis: it records the old ord-keys of the synopsis columns
// the patch overlaps, applies the patch, then retires the old values'
// support and admits the new ones. A column goes dirty only when a
// bound's support reaches zero — until ResummarizeDirty recomputes it,
// the stale (wider) bound remains sound.
func (p *Partition) zmPatchSlot(slot int32, offset uint32, data []byte) {
	z := p.zm
	b := int(slot) >> z.shift
	tup := p.data[int(slot)*p.tupleSize:][:p.tupleSize]
	lo, hi := int(offset), int(offset)+len(data)
	touched := z.scratch[:0]
	for _, c := range z.actCols {
		if int(c.end) <= lo || int(c.off) >= hi {
			continue
		}
		touched = append(touched, patchTouch{int(c.ci), ordKeyAt(tup, c.off, c.typ)})
	}
	copy(tup[lo:], data)
	base := b * len(z.cols)
	var mask uint64
	for _, t := range touched {
		nk := z.key(tup, t.ci)
		if nk == t.old {
			continue
		}
		bi := base + t.ci
		if t.old == z.syn[bi].min {
			z.syn[bi].minCnt--
		}
		if t.old == z.syn[bi].max {
			z.syn[bi].maxCnt--
		}
		z.admit(bi, nk)
		if z.syn[bi].minCnt <= 0 || z.syn[bi].maxCnt <= 0 {
			mask |= 1 << uint(t.ci)
		}
	}
	if mask != 0 {
		z.dirtyCols[b] |= mask
		z.anyDirty = true
	}
	z.scratch = touched[:0]
}

// zmDelete retires a tombstoned slot's support (the tuple bytes are
// still in place — Delete only clears the live flag). An emptied block
// resets to the exact empty sentinel; otherwise columns whose bound
// lost its last supporter go dirty.
func (p *Partition) zmDelete(slot int32) {
	z := p.zm
	b := int(slot) >> z.shift
	z.live[b]--
	if len(z.actCols) == 0 {
		return
	}
	base := b * len(z.cols)
	if z.live[b] == 0 {
		for _, c := range z.actCols {
			z.syn[base+int(c.ci)] = colSyn{min: math.MaxInt64, max: math.MinInt64}
		}
		z.dirtyCols[b] = 0
		return
	}
	tup := p.data[int(slot)*p.tupleSize:][:p.tupleSize]
	var mask uint64
	for _, c := range z.actCols {
		ci := int(c.ci)
		k := ordKeyAt(tup, c.off, c.typ)
		s := &z.syn[base+ci]
		if k == s.min {
			s.minCnt--
			if s.minCnt <= 0 {
				mask |= 1 << uint(ci)
			}
		}
		if k == s.max {
			s.maxCnt--
			if s.maxCnt <= 0 {
				mask |= 1 << uint(ci)
			}
		}
	}
	if mask != 0 {
		z.dirtyCols[b] |= mask
		z.anyDirty = true
	}
}

// blockSlots clamps block b's slot range to the allocated slots.
func (p *Partition) blockSlots(b int) (lo, hi int) {
	lo = b << p.zm.shift
	hi = lo + p.zm.block
	if hi > len(p.alive) {
		hi = len(p.alive)
	}
	return lo, hi
}

// recomputeBlockCols re-derives exactly the masked columns of block b.
// The live count is always maintained exactly and is not touched.
func (p *Partition) recomputeBlockCols(b int, mask uint64) {
	z := p.zm
	base := b * len(z.cols)
	lo, hi := p.blockSlots(b)
	for ci := range z.cols {
		if mask&(1<<uint(ci)) == 0 {
			continue
		}
		bi := base + ci
		z.syn[bi] = colSyn{min: math.MaxInt64, max: math.MinInt64}
		for i := lo; i < hi; i++ {
			if !p.alive[i] {
				continue
			}
			z.admit(bi, z.key(p.data[i*p.tupleSize:], ci))
		}
	}
	z.dirtyCols[b] &^= mask
}

// ResummarizeDirty recomputes every loose column synopsis exactly.
// ApplyPending calls it per partition inside the parallel apply step 3,
// so every column dirtied by an apply round is exact again before the
// next query batch; the cost rides in the already-measured apply
// window.
func (p *Partition) ResummarizeDirty() {
	z := p.zm
	if z == nil || !z.anyDirty {
		return
	}
	for b, m := range z.dirtyCols {
		if m != 0 {
			p.recomputeBlockCols(b, m)
		}
	}
	z.anyDirty = false
}

// RangeMayMatch reports whether the slot range [lo, hi) might contain a
// live tuple satisfying every conjunct in ranges. It is conservative:
// true when the partition has no zone map, when a conjunct's column is
// not synopsis-eligible or not yet activated, or when any overlapped
// block's bounds intersect all conjuncts. A false verdict is a proof —
// the executor skips the morsel without touching its tuples.
func (p *Partition) RangeMayMatch(lo, hi int, ranges []ColRange) bool {
	z := p.zm
	if z == nil {
		return true
	}
	if lo < 0 {
		lo = 0
	}
	if hi > len(p.alive) {
		hi = len(p.alive)
	}
	if lo >= hi {
		return false
	}
	nc := len(z.cols)
	for b := lo >> z.shift; b < len(z.live) && b<<z.shift < hi; b++ {
		if z.live[b] == 0 {
			continue
		}
		base := b * nc
		ok := true
		for _, r := range ranges {
			if r.Col < 0 || r.Col >= len(z.colPos) {
				continue
			}
			ci := z.colPos[r.Col]
			if ci < 0 || z.active&(1<<uint(ci)) == 0 {
				continue // not eligible or not activated: cannot disprove
			}
			if s := &z.syn[base+ci]; s.max < r.Lo || s.min > r.Hi {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// LiveInRange counts live tuples in the slot range [lo, hi), using
// block live counters where the range covers whole blocks. The
// executor uses it to attribute skipped morsels' tuples to the
// pruning stats without scanning them.
func (p *Partition) LiveInRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(p.alive) {
		hi = len(p.alive)
	}
	if lo >= hi {
		return 0
	}
	z := p.zm
	if z == nil {
		n := 0
		for i := lo; i < hi; i++ {
			if p.alive[i] {
				n++
			}
		}
		return n
	}
	n := 0
	i := lo
	for i < hi {
		b := i >> z.shift
		bEnd := (b + 1) << z.shift
		if i == b<<z.shift && bEnd <= hi {
			n += int(z.live[b])
			i = bEnd
			continue
		}
		end := bEnd
		if end > hi {
			end = hi
		}
		for ; i < end; i++ {
			if p.alive[i] {
				n++
			}
		}
	}
	return n
}
