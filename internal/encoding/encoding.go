// Package encoding implements the per-block lightweight column
// encodings behind BatchDB's compressed scan path: frame-of-reference
// (FOR) with bit-packed offsets, order-preserving dictionary coding,
// and run-length encoding, chosen per (block, column) by a cheap
// stats pass.
//
// All values are order-preserving int64 keys (storage.Schema.OrdKey
// space), so one Vector representation serves every numeric column
// type and predicate constants translate into the encoded domain with
// pure integer arithmetic: a FOR vector turns an interval predicate
// into an unsigned offset interval, a dictionary vector turns it into
// a code interval (codes are assigned in value order) and an IN-list
// into code-set membership. FilterAnd evaluates predicates directly on
// the encoded form and narrows a selection bitmap; nothing is decoded
// until the executor materializes the surviving tuples.
//
// Encoding is chosen by estimated size: the cheapest candidate whose
// footprint beats the raw column wins, otherwise Encode reports the
// block as incompressible and the caller keeps the tuple-at-a-time
// path for it. That keeps the fallback honest — blocks with high
// cardinality, wide ranges and no runs stay uncompressed.
package encoding

import (
	"fmt"
	"math/bits"
	"slices"
)

// Kind identifies a vector's encoding.
type Kind uint8

// Encodings. None is returned in stats for blocks where no candidate
// beat the raw column footprint (Encode returns a nil *Vector).
const (
	None Kind = iota
	FOR
	Dict
	RLE
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case FOR:
		return "for"
	case Dict:
		return "dict"
	case RLE:
		return "rle"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// maxDictSize caps dictionary cardinality; the stats pass bails out of
// distinct tracking beyond it. 256 keeps the dictionary inside four
// cache lines and code widths at or under one byte.
const maxDictSize = 256

// probeSize is the open-addressing table backing the distinct counter:
// a power of two with load factor <= 1/4 at maxDictSize.
const probeSize = 1024

// Scratch holds the reusable state of Encode's stats pass (the
// distinct-value probe table). One Scratch serves one encoder
// goroutine; BatchDB's apply step is single-goroutine per partition,
// so each partition owns one.
type Scratch struct {
	keys  [probeSize]int64
	stamp [probeSize]uint32
	epoch uint32
	vals  []int64
	// codes[slot] is keys[slot]'s dictionary code once assigned — the
	// Dict pack loop resolves value->code with one hash probe instead
	// of a per-value binary search over the dictionary.
	codes [probeSize]int32

	// Retired payload buffers (see Recycle): re-encoding a block every
	// apply window would otherwise allocate fresh packed/dict/run slices
	// each time and leave the old ones to the collector — on the apply
	// critical path, the garbage costs more than the encoding.
	words [][]uint64
	ints  [][]int64
	ends  [][]int32
}

// poolSlots bounds each recycle pool; one encoder goroutine touches at
// most a handful of buffers between reuses.
const poolSlots = 8

// Recycle returns v's payload buffers to the scratch pools for later
// Encode calls and nils them out (stale readers fail loudly instead of
// silently reading reused memory). Only safe when no reader can still
// hold v — i.e. inside the quiesced window that replaced it.
func (sc *Scratch) Recycle(v *Vector) {
	if sc == nil || v == nil {
		return
	}
	if v.packed != nil && len(sc.words) < poolSlots {
		sc.words = append(sc.words, v.packed[:0])
	}
	if v.dict != nil && len(sc.ints) < poolSlots {
		sc.ints = append(sc.ints, v.dict[:0])
	}
	if v.runVals != nil && len(sc.ints) < poolSlots {
		sc.ints = append(sc.ints, v.runVals[:0])
	}
	if v.runEnds != nil && len(sc.ends) < poolSlots {
		sc.ends = append(sc.ends, v.runEnds[:0])
	}
	v.packed, v.dict, v.runVals, v.runEnds = nil, nil, nil, nil
}

// getWords takes a zeroed n-word slice from the pool or allocates one.
func (sc *Scratch) getWords(n int) []uint64 {
	if sc != nil {
		for i, w := range sc.words {
			if cap(w) >= n {
				sc.words[i] = sc.words[len(sc.words)-1]
				sc.words = sc.words[:len(sc.words)-1]
				w = w[:n]
				for j := range w {
					w[j] = 0
				}
				return w
			}
		}
	}
	return make([]uint64, n)
}

// getInts takes an empty int64 slice with capacity >= n, pooled or new.
func (sc *Scratch) getInts(n int) []int64 {
	if sc != nil {
		for i, s := range sc.ints {
			if cap(s) >= n {
				sc.ints[i] = sc.ints[len(sc.ints)-1]
				sc.ints = sc.ints[:len(sc.ints)-1]
				return s[:0]
			}
		}
	}
	return make([]int64, 0, n)
}

// getEnds takes an empty int32 slice with capacity >= n, pooled or new.
func (sc *Scratch) getEnds(n int) []int32 {
	if sc != nil {
		for i, s := range sc.ends {
			if cap(s) >= n {
				sc.ends[i] = sc.ends[len(sc.ends)-1]
				sc.ends = sc.ends[:len(sc.ends)-1]
				return s[:0]
			}
		}
	}
	return make([]int32, 0, n)
}

func (sc *Scratch) reset() {
	sc.epoch++
	if sc.epoch == 0 { // stamp wrap: invalidate everything explicitly
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
	sc.vals = sc.vals[:0]
}

// add records v as seen and reports whether distinct tracking is still
// within maxDictSize.
func (sc *Scratch) add(v int64) bool {
	h := (uint64(v) * 0x9E3779B97F4A7C15) >> (64 - 10)
	for {
		if sc.stamp[h] != sc.epoch {
			sc.stamp[h] = sc.epoch
			sc.keys[h] = v
			sc.vals = append(sc.vals, v)
			return len(sc.vals) <= maxDictSize
		}
		if sc.keys[h] == v {
			return true
		}
		h = (h + 1) & (probeSize - 1)
	}
}

// slot returns v's probe-table slot; v must have been added this epoch.
func (sc *Scratch) slot(v int64) uint64 {
	h := (uint64(v) * 0x9E3779B97F4A7C15) >> (64 - 10)
	for sc.stamp[h] != sc.epoch || sc.keys[h] != v {
		h = (h + 1) & (probeSize - 1)
	}
	return h
}

// Vector is one encoded column block: n order-preserving int64 values
// in one of the supported encodings. Vectors never change outside a
// quiesced maintenance window; inside one, a point write whose value
// the encoded domain already covers is patched in place (TryPatch) and
// anything else forces a re-encode.
type Vector struct {
	kind Kind
	n    int

	// FOR: value i = base + packed[i] (unsigned offsets, width bits).
	// Dict: value i = dict[packed[i]] (codes in value order, width bits).
	base   int64
	width  uint
	mask   uint64
	packed []uint64

	// dict holds the sorted distinct values (Dict only). Sorted order
	// means code order equals value order, so interval predicates map to
	// code intervals by binary search.
	dict []int64

	// RLE: run r covers positions [runEnds[r-1], runEnds[r]) with value
	// runVals[r].
	runVals []int64
	runEnds []int32
}

// Kind returns the vector's encoding.
func (v *Vector) Kind() Kind { return v.kind }

// Len returns the number of encoded values.
func (v *Vector) Len() int { return v.n }

// EncodedBytes returns the approximate in-memory footprint of the
// encoded payload (the compression-ratio numerator).
func (v *Vector) EncodedBytes() int {
	switch v.kind {
	case FOR:
		return len(v.packed)*8 + 16
	case Dict:
		return len(v.packed)*8 + len(v.dict)*8 + 16
	case RLE:
		return len(v.runVals)*8 + len(v.runEnds)*4 + 16
	default:
		return 0
	}
}

// get unpacks the width-bit field at position i of packed.
func (v *Vector) get(i int) uint64 {
	if v.width == 0 {
		return 0
	}
	bit := i * int(v.width)
	w, off := bit>>6, uint(bit&63)
	x := v.packed[w] >> off
	if off+v.width > 64 {
		x |= v.packed[w+1] << (64 - off)
	}
	return x & v.mask
}

// put packs the width-bit field at position i of packed; fields are
// written in order into zeroed words. width 0 stores nothing (the
// vector is constant).
func put(packed []uint64, i int, width uint, x uint64) {
	if width == 0 {
		return
	}
	bit := i * int(width)
	w, off := bit>>6, uint(bit&63)
	packed[w] |= x << off
	if off+width > 64 {
		packed[w+1] |= x >> (64 - off)
	}
}

// TryPatch overwrites position i with val without re-encoding and
// reports whether it could: a FOR vector accepts any value inside its
// offset range, a Dict vector any value already in its dictionary.
// Steady-state patch traffic repeats a small value set (carrier IDs,
// the current delivery timestamp), so after one re-encode has admitted
// a value to the block's domain, later windows patch bits instead of
// rebuilding the vector. RLE (and out-of-domain values) return false —
// the caller falls back to a rebuild; a partially patched vector is
// safe to rebuild since every patched position is rewritten from the
// rows anyway.
func (v *Vector) TryPatch(i int, val int64) bool {
	switch v.kind {
	case FOR:
		if val < v.base {
			return false
		}
		d := uint64(val) - uint64(v.base)
		if v.width == 0 {
			return d == 0
		}
		if d > v.mask {
			return false
		}
		v.set(i, d)
		return true
	case Dict:
		c, ok := slices.BinarySearch(v.dict, val)
		if !ok {
			return false
		}
		if v.width != 0 {
			v.set(i, uint64(c))
		}
		return true
	default: // RLE: a point write splits runs; rebuild instead
		return false
	}
}

// set overwrites the width-bit field at position i of packed
// (read-modify-write, unlike put's OR-into-zeroed).
func (v *Vector) set(i int, x uint64) {
	bit := i * int(v.width)
	w, off := bit>>6, uint(bit&63)
	v.packed[w] = v.packed[w]&^(v.mask<<off) | x<<off
	if off+v.width > 64 {
		rem := 64 - off
		v.packed[w+1] = v.packed[w+1]&^(v.mask>>rem) | x>>rem
	}
}

// DecodeAll writes every position's value into dst (len >= Len()).
// It is the incremental re-encode primitive: a block dirtied by a few
// point patches is rebuilt by decoding the old vector sequentially —
// the packed payload is a fraction of the row bytes and streams
// through cache — and overwriting just the patched slots, instead of
// re-gathering the whole block from strided row storage.
func (v *Vector) DecodeAll(dst []int64) {
	switch v.kind {
	case FOR:
		if v.width == 0 {
			for i := 0; i < v.n; i++ {
				dst[i] = v.base
			}
			return
		}
		for i, bit := 0, 0; i < v.n; i, bit = i+1, bit+int(v.width) {
			w, off := bit>>6, uint(bit&63)
			x := v.packed[w] >> off
			if off+v.width > 64 {
				x |= v.packed[w+1] << (64 - off)
			}
			dst[i] = v.base + int64(x&v.mask)
		}
	case Dict:
		if v.width == 0 {
			for i := 0; i < v.n; i++ {
				dst[i] = v.dict[0]
			}
			return
		}
		for i, bit := 0, 0; i < v.n; i, bit = i+1, bit+int(v.width) {
			w, off := bit>>6, uint(bit&63)
			x := v.packed[w] >> off
			if off+v.width > 64 {
				x |= v.packed[w+1] << (64 - off)
			}
			dst[i] = v.dict[x&v.mask]
		}
	default: // RLE
		pos := 0
		for r, val := range v.runVals {
			end := int(v.runEnds[r])
			for ; pos < end; pos++ {
				dst[pos] = val
			}
		}
	}
}

// Value decodes position i — the parity oracle for tests and a
// debugging aid; scans never decode wholesale.
func (v *Vector) Value(i int) int64 {
	switch v.kind {
	case FOR:
		return v.base + int64(v.get(i))
	case Dict:
		return v.dict[v.get(i)]
	default: // RLE
		lo, hi := 0, len(v.runEnds)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if int(v.runEnds[mid]) <= i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return v.runVals[lo]
	}
}

// Encode analyzes vals with a cheap stats pass (min/max, run count)
// and materializes the cheapest encoding, or returns nil when no
// candidate beats the raw column footprint of rawBits bits per value.
// sc may be nil to skip dictionary probing.
func Encode(vals []int64, rawBits int, sc *Scratch) *Vector {
	n := len(vals)
	if n == 0 {
		return nil
	}
	minV, maxV := vals[0], vals[0]
	runs := 1
	prev := vals[0]
	for _, v := range vals[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		if v != prev {
			runs++
			prev = v
		}
	}
	return EncodeStats(vals, rawBits, sc, minV, maxV, runs)
}

// Constant builds the width-0 FOR vector every position of which
// decodes to val — the degenerate block a caller can recognize from
// its own metadata (e.g. a synopsis with min == max) without gathering
// the rows at all.
func Constant(n int, val int64) *Vector {
	v := &Vector{kind: FOR, n: n, base: val, width: 0}
	v.finishPacked(nil)
	return v
}

// EncodeStats is Encode for callers that already know the block's
// stats — BatchDB's apply step computes min/max/run-count inside the
// row-gather loop, so re-deriving them here would double-scan the
// block. minV/maxV must bound every value (loose bounds only widen the
// FOR width); runs must be the exact run count.
//
// Dictionary candidates are priced only when FOR needs more than a
// byte per value — below that, FOR already packs within 8x of any
// dictionary's code width — and when RLE hasn't already reached ~2
// bits per value, where no dictionary can save enough to pay for the
// per-value distinct probing. The probe pass therefore runs second,
// gated on the cheap stats.
func EncodeStats(vals []int64, rawBits int, sc *Scratch, minV, maxV int64, runs int) *Vector {
	n := len(vals)
	if n == 0 {
		return nil
	}
	// Tiny-cardinality fast path: blocks dirtied by point patches are
	// typically a handful of distinct values (a date column holding
	// "unset" plus a few delivery timestamps), and four registers
	// compare much faster than the hash probe. Fall into the table only
	// from the first value that overflows them. Gated on the same test
	// encodeSeeded applies, so callers that will not dict-probe skip
	// the scan entirely.
	var d [4]int64
	d[0] = vals[0]
	nd, i := 1, 1
	if forWidth := bits.Len64(uint64(maxV) - uint64(minV)); sc != nil && forWidth > 8 && runs*(64+32) > 2*n {
	scan:
		for ; i < n; i++ {
			v := vals[i]
			switch {
			case v == d[0]:
			case nd > 1 && v == d[1]:
			case nd > 2 && v == d[2]:
			case nd > 3 && v == d[3]:
			default:
				if nd == 4 {
					break scan
				}
				d[nd] = v
				nd++
			}
		}
	}
	return encodeSeeded(vals, rawBits, sc, minV, maxV, runs, &d, nd, i)
}

// encodeSeeded is the shared back half of Encode/EncodeStats: d[:nd]
// holds the distinct values seen before position over (at most four —
// the callers' tiny-cardinality registers), and the hash probe resumes
// from over for whatever the registers could not absorb.
func encodeSeeded(vals []int64, rawBits int, sc *Scratch, minV, maxV int64, runs int, d *[4]int64, nd, over int) *Vector {
	n := len(vals)
	forWidth := bits.Len64(uint64(maxV) - uint64(minV))
	dictOK := sc != nil && forWidth > 8 && runs*(64+32) > 2*n
	if dictOK {
		sc.reset()
		for k := 0; k < nd; k++ {
			sc.add(d[k])
		}
		for i := over; i < n; i++ {
			if dictOK = sc.add(vals[i]); !dictOK {
				break
			}
		}
	}

	// Candidate footprints in bits; the 128-bit constant stands in for
	// the per-vector header. A candidate must undercut the raw column by
	// at least 1/8 — marginal wins (a 63-bit FOR over 64-bit data) are
	// not worth the re-encode traffic.
	const header = 128
	raw := n * rawBits
	best, kind := raw-raw>>3, None
	if c := n*forWidth + header; forWidth < 64 && c < best {
		best, kind = c, FOR
	}
	if dictOK {
		nd := len(sc.vals)
		if c := n*bits.Len(uint(nd-1)) + nd*64 + header; c < best {
			best, kind = c, Dict
		}
	}
	if c := runs*(64+32) + header; c < best {
		best, kind = c, RLE
	}
	_ = best

	switch kind {
	case FOR:
		v := &Vector{kind: FOR, n: n, base: minV, width: uint(forWidth)}
		v.finishPacked(sc)
		v.packFOR(vals)
		return v
	case Dict:
		dict := append(sc.getInts(len(sc.vals)), sc.vals...)
		slices.Sort(dict)
		v := &Vector{
			kind: Dict, n: n, dict: dict,
			width: uint(bits.Len(uint(len(dict) - 1))),
		}
		v.finishPacked(sc)
		if nd := len(dict); nd >= 2 && nd <= 4 {
			// Patch-dirtied blocks are dominated by 2-4 distinct values (a
			// date column holding "unset" plus a few delivery timestamps);
			// a register compare chain beats the hash probe per value.
			// Unused lanes repeat dict[nd-1]: a duplicate value matches its
			// earlier case first, so padding can never assign a wrong code.
			d1, d2, d3 := dict[1], dict[nd-1], dict[nd-1]
			if nd > 2 {
				d2 = dict[2]
			}
			if nd > 3 {
				d3 = dict[3]
			}
			width := v.width
			var cur uint64
			shift, wi := uint(0), 0
			for _, x := range vals {
				var c uint64
				switch x {
				case d1:
					c = 1
				case d2:
					c = 2
				case d3:
					c = 3
				}
				cur |= c << shift
				shift += width
				if shift >= 64 {
					v.packed[wi] = cur
					wi++
					shift -= 64
					cur = 0
					if shift > 0 {
						cur = c >> (width - shift)
					}
				}
			}
			if shift > 0 {
				v.packed[wi] = cur
			}
			return v
		}
		// Sorting reordered the codes; stamp each entry's code into the
		// probe table (nd probes), then the pack loop resolves value->code
		// with one probe per value and streams the fields like packFOR.
		for i, dv := range dict {
			sc.codes[sc.slot(dv)] = int32(i)
		}
		width := v.width
		var cur uint64
		shift, wi := uint(0), 0
		for _, x := range vals {
			c := uint64(sc.codes[sc.slot(x)])
			cur |= c << shift
			shift += width
			if shift >= 64 {
				v.packed[wi] = cur
				wi++
				shift -= 64
				cur = 0
				if shift > 0 {
					cur = c >> (width - shift)
				}
			}
		}
		if shift > 0 {
			v.packed[wi] = cur
		}
		return v
	case RLE:
		v := &Vector{kind: RLE, n: n,
			runVals: sc.getInts(runs), runEnds: sc.getEnds(runs)}
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			v.runVals = append(v.runVals, vals[i])
			v.runEnds = append(v.runEnds, int32(j))
			i = j
		}
		return v
	default:
		return nil
	}
}

// finishPacked sizes the packed words and mask for the chosen width,
// drawing the word buffer from sc's recycle pool when available.
func (v *Vector) finishPacked(sc *Scratch) {
	if v.width == 0 {
		v.mask = 0
		return
	}
	v.mask = ^uint64(0) >> (64 - v.width)
	v.packed = sc.getWords((v.n*int(v.width) + 63) >> 6)
}

// packFOR streams the base offsets into packed in order, carrying the
// write position across values instead of re-deriving word and bit
// offset per field as put does — this is Encode's hot loop.
func (v *Vector) packFOR(vals []int64) {
	width := v.width
	if width == 0 {
		return
	}
	base := uint64(v.base)
	var cur uint64
	shift, wi := uint(0), 0
	for _, x := range vals {
		d := uint64(x) - base
		cur |= d << shift
		shift += width
		if shift >= 64 {
			v.packed[wi] = cur
			wi++
			shift -= 64
			cur = 0
			if shift > 0 {
				cur = d >> (width - shift)
			}
		}
	}
	if shift > 0 {
		v.packed[wi] = cur
	}
}

// FilterAnd narrows sel to the values satisfying
// `lo <= value <= hi && (set == nil || value IN set)`: bit i of sel
// corresponds to position i of the vector, and every bit whose value
// fails the predicate is cleared (set bits are never added, so
// repeated calls AND conjuncts). set must be sorted ascending. Bits at
// positions in [Len(), 64*ceil(Len()/64)) are cleared too, so a
// partial tail block yields a clean bitmap. len(sel) must be at least
// ceil(Len()/64); later words are left untouched.
//
// The predicate constant is translated into the encoded domain once
// per call — an unsigned offset interval for FOR, a code interval (and
// code-membership mask) for Dict, per-run verdicts for RLE — so the
// hot loop compares packed fields without decoding.
func (v *Vector) FilterAnd(sel []uint64, lo, hi int64, set []int64) {
	nw := (v.n + 63) >> 6
	if tail := uint(v.n & 63); tail != 0 {
		sel[nw-1] &= ^uint64(0) >> (64 - tail)
	}
	sel = sel[:nw]
	if lo > hi {
		clearWords(sel)
		return
	}
	switch v.kind {
	case FOR:
		v.filterFOR(sel, lo, hi, set)
	case Dict:
		v.filterDict(sel, lo, hi, set)
	default:
		v.filterRLE(sel, lo, hi, set)
	}
}

func clearWords(sel []uint64) {
	for i := range sel {
		sel[i] = 0
	}
}

// member reports set membership; set is sorted ascending.
func member(set []int64, x int64) bool {
	_, ok := slices.BinarySearch(set, x)
	return ok
}

func (v *Vector) filterFOR(sel []uint64, lo, hi int64, set []int64) {
	if hi < v.base {
		clearWords(sel)
		return
	}
	if v.width == 0 { // constant block: one verdict decides every bit
		if v.base < lo || (set != nil && !member(set, v.base)) {
			clearWords(sel)
		}
		return
	}
	// Translate [lo, hi] into the unsigned offset domain. Offsets are
	// deltas from base, so the comparison runs on packed fields as-is.
	var dlo uint64
	if lo > v.base {
		dlo = uint64(lo) - uint64(v.base)
	}
	dhi := uint64(hi) - uint64(v.base)
	if dlo > v.mask {
		clearWords(sel)
		return
	}
	if dhi > v.mask {
		dhi = v.mask
	}
	v.filterPackedRange(sel, dlo, dhi)
	if set == nil {
		return
	}
	// Set membership runs scalar on the range pass's survivors.
	for wi, m := range sel {
		for m != 0 {
			j := bits.TrailingZeros64(m)
			m &= m - 1
			if !member(set, v.base+int64(v.get(wi<<6|j))) {
				sel[wi] &^= 1 << uint(j)
			}
		}
	}
}

func (v *Vector) filterDict(sel []uint64, lo, hi int64, set []int64) {
	// Codes are assigned in value order, so the value interval becomes a
	// code interval by two binary searches over the dictionary.
	cLo, _ := slices.BinarySearch(v.dict, lo)
	cHi, ok := slices.BinarySearch(v.dict, hi)
	if !ok {
		cHi--
	}
	if cLo > cHi {
		clearWords(sel)
		return
	}
	// IN-lists become a bitmask over the (at most maxDictSize) codes:
	// one membership probe per dictionary entry, then the survivor loop
	// tests a single bit per value.
	var codeOK [maxDictSize / 64]uint64
	if set != nil {
		any := false
		for c := cLo; c <= cHi; c++ {
			if member(set, v.dict[c]) {
				codeOK[c>>6] |= 1 << uint(c&63)
				any = true
			}
		}
		if !any {
			clearWords(sel)
			return
		}
	}
	v.filterPackedRange(sel, uint64(cLo), uint64(cHi))
	if set == nil {
		return
	}
	for wi, m := range sel {
		for m != 0 {
			j := bits.TrailingZeros64(m)
			m &= m - 1
			c := v.get(wi<<6 | j)
			if codeOK[c>>6]&(1<<uint(c&63)) == 0 {
				sel[wi] &^= 1 << uint(j)
			}
		}
	}
}

// filterPackedRange is the shared range kernel behind the FOR and Dict
// paths: it clears every sel bit whose packed field value (an offset or
// a code) falls outside [dlo, dhi]. Callers guarantee dlo <= dhi and
// dhi <= mask. Widths that align with the word (4/8/16 bits) compare a
// whole packed word of lanes at once (filterAlignedRange); width 1 is
// pure bitwise; everything else streams fields with a branchless
// unsigned-span compare.
func (v *Vector) filterPackedRange(sel []uint64, dlo, dhi uint64) {
	switch v.width {
	case 0:
		// Every field decodes to 0 (degenerate one-entry dictionary).
		if dlo > 0 {
			clearWords(sel)
		}
	case 1:
		// Field i is bit i of packed word i: the verdict IS the payload.
		for wi := range sel {
			switch {
			case dlo == 0 && dhi >= 1: // both values pass
			case dlo == 0:
				sel[wi] &^= v.packed[wi]
			default:
				sel[wi] &= v.packed[wi]
			}
		}
	case 4, 8, 16:
		v.filterAlignedRange(sel, dlo, dhi)
	default:
		v.filterScalarRange(sel, dlo, dhi)
	}
}

// filterScalarRange handles widths the SWAR kernel cannot: sparse
// selection words test only their set bits; dense words stream all 64
// fields with a carried bit cursor and a single branchless unsigned
// compare (x - dlo <= span catches both bounds at once).
func (v *Vector) filterScalarRange(sel []uint64, dlo, dhi uint64) {
	span := dhi - dlo
	width := v.width
	for wi, m := range sel {
		if m == 0 {
			continue
		}
		if bits.OnesCount64(m) < 16 {
			for ; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				if v.get(wi<<6|j)-dlo > span {
					sel[wi] &^= 1 << uint(j)
				}
			}
			continue
		}
		base := wi << 6
		n64 := v.n - base
		if n64 > 64 {
			n64 = 64
		}
		var keep uint64
		bit := base * int(width)
		for j := 0; j < n64; j++ {
			w, off := bit>>6, uint(bit&63)
			x := v.packed[w] >> off
			if off+width > 64 {
				x |= v.packed[w+1] << (64 - off)
			}
			if x&v.mask-dlo <= span {
				keep |= 1 << uint(j)
			}
			bit += int(width)
		}
		sel[wi] &= keep
	}
}

// filterAlignedRange is the word-parallel range kernel for field widths
// w in {4, 8, 16}: fields never straddle packed words, so each packed
// word is compared as SWAR lanes of s = 2w bits — even fields in one
// pass, odd fields in a second, each field sitting in its lane's low
// half with the top half zero as overflow headroom. Per lane,
// (x|H)-dlo keeps the lane's high bit iff x >= dlo and (dhi|H)-x keeps
// it iff x <= dhi (no borrow can cross lanes); the verdict high bits
// are gathered into a dense mask with one multiply (the movemask
// multiply generalized to s-bit lanes — collision-free for s >= 8),
// and the even/odd masks interleave back into position order with a
// Morton bit-spread. 64 bits of payload cost a handful of ALU ops
// instead of 64/w unpack-compare iterations.
func (v *Vector) filterAlignedRange(sel []uint64, dlo, dhi uint64) {
	w := v.width
	s := 2 * w        // SWAR lane width
	nf := 32 / int(w) // fields per lane pass (even or odd halves)
	var H, L uint64
	switch s {
	case 8:
		H, L = 0x8080808080808080, 0x0101010101010101
	case 16:
		H, L = 0x8000800080008000, 0x0001000100010001
	default: // 32
		H, L = 0x8000000080000000, 0x0000000100000001
	}
	evenMask := v.mask * L
	dloL, dhiL := dlo*L, dhi*L|H
	var gather uint64 // Σ 2^(m(s-1)): the movemask multiply constant
	for m := 0; m < nf; m++ {
		gather |= 1 << (uint(m) * (s - 1))
	}
	gshift := uint(nf-1) * (s - 1)
	lowNf := uint64(1)<<uint(nf) - 1
	k := 64 / int(w) // fields per packed word
	pw := int(w)     // packed words per selection word (64/k)
	np := len(v.packed)
	span := dhi - dlo
	for wi, m := range sel {
		if m == 0 {
			continue
		}
		if bits.OnesCount64(m) < 8 {
			// Sparse survivors: unpacking whole words would evaluate
			// mostly-dead lanes; test the set bits directly.
			for ; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				if v.get(wi<<6|j)-dlo > span {
					sel[wi] &^= 1 << uint(j)
				}
			}
			continue
		}
		var keep uint64
		shift := uint(0)
		for g, pos := 0, wi*pw; g < pw && pos+g < np; g++ {
			x := v.packed[pos+g]
			xe := x & evenMask
			xo := (x >> w) & evenMask
			ve := ((xe | H) - dloL) & (dhiL - xe) & H
			vo := ((xo | H) - dloL) & (dhiL - xo) & H
			ge := ((ve >> (s - 1)) * gather) >> gshift & lowNf
			go_ := ((vo >> (s - 1)) * gather) >> gshift & lowNf
			keep |= (spreadBits(ge) | spreadBits(go_)<<1) << shift
			shift += uint(k)
		}
		sel[wi] &= keep
	}
}

// spreadBits inserts a zero between consecutive low bits (Morton
// spread): bit i moves to bit 2i. Defined for the low 32 bits.
func spreadBits(x uint64) uint64 {
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

func (v *Vector) filterRLE(sel []uint64, lo, hi int64, set []int64) {
	pos := 0
	for r, val := range v.runVals {
		end := int(v.runEnds[r])
		if val < lo || val > hi || (set != nil && !member(set, val)) {
			clearRange(sel, pos, end)
		}
		pos = end
	}
}

// clearRange clears bits [from, to) of sel.
func clearRange(sel []uint64, from, to int) {
	if from >= to {
		return
	}
	fw, tw := from>>6, (to-1)>>6
	fm := ^uint64(0) << uint(from&63)
	tm := ^uint64(0) >> uint(63-(to-1)&63)
	if fw == tw {
		sel[fw] &^= fm & tm
		return
	}
	sel[fw] &^= fm
	for w := fw + 1; w < tw; w++ {
		sel[w] = 0
	}
	sel[tw] &^= tm
}
