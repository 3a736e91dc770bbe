package olap

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"batchdb/internal/encoding"
	"batchdb/internal/storage"
)

// Compressed columnar blocks (ROADMAP item 3).
//
// With zone maps the shared scan already skips blocks whose synopses
// disprove a predicate, but every block it cannot skip is still read
// tuple-at-a-time from uncompressed row storage — the scan is bounded
// by raw memory bandwidth. This file adds per-block encoded column
// vectors beside the zone map: for every active synopsis column, each
// block's ord-keys are re-encoded (dictionary / frame-of-reference /
// RLE, chosen by internal/encoding's stats pass) into a compact
// filter-friendly form.
//
// The row data remains the source of truth. Vectors are pure scan
// accelerators: FilterRange evaluates a query's pushed-down conjuncts
// on the encoded form and emits an exact selection bitmap, and the
// executor materializes only the surviving tuples from the row slots
// (Partition.LiveSlots). Parity with the uncompressed path is
// therefore structural — both paths read the same bytes for every
// surviving tuple — and is additionally pinned by randomized tests.
//
// Maintenance rides the same exclusive phases as the zone map:
// inserts and overlapping patches mark a block's vectors stale (the
// raw row write happens regardless), and ReencodeDirty re-encodes
// stale blocks inside a quiesced apply window, right after
// ResummarizeDirty — not in every window: a round some batch is waiting
// on leaves them flagged, FilterRange and SumLiveRange refuse a flagged
// block-column, and the scan reads its rows, which is exact.
// Deletes never stale a block: Delete only clears the rowID, the tuple
// bytes — and hence the encoded vector — are unchanged, and LiveSlots
// skips dead slots at materialization, so a dead slot's filter verdict
// is a don't-care. Dead slots are encoded as the block's synopsis min
// (sound even when loose: bounds only widen), which also hands FOR its
// base for free.
type encStore struct {
	// nc mirrors len(zm.cols); vecs[b*nc+ci] is block b's vector for
	// synopsis column ci, nil when the block-column did not encode
	// profitably (or the column is inactive) — the tuple-at-a-time
	// fallback.
	nc   int
	vecs []*encoding.Vector
	// stale[b] is the bitmask (over synopsis column slots, like
	// zoneMap.active) of block b's columns whose vectors no longer
	// reflect the row bytes. Column granularity matters for patches: a
	// delivery-date patch dirties one column's vector, not the block's
	// whole set, so ReencodeDirty rebuilds a third of the bytes an
	// all-or-nothing flag would. FilterRange refuses a block whenever a
	// queried column's bit is set.
	stale    []uint64
	anyStale bool

	// full[b] marks the stale columns that need a full row gather:
	// inserts (a new tuple is not in any old vector), activation, block
	// growth, journal overflow. Stale columns without their full bit are
	// rebuilt incrementally — decode the old vector, overwrite the
	// journaled patched slots — which reads the compact packed payload
	// instead of re-striding the whole block's row bytes.
	full []uint64

	// jlog records the point patches behind the incremental stale bits,
	// as a flat append-only log — the apply hot path pays one slice
	// append per patch, and ReencodeDirty groups entries by block (the
	// block is slot>>shift) with one sort per window. Values are re-read
	// from the rows at re-encode time, so entries are idempotent and
	// ordering-free; a block with more entries than an eighth of its
	// slots (journalShift) falls back to a full gather.
	jlog []patchRec

	// vals is the per-block gather buffer; sc backs the stats pass.
	// Partition mutation and re-encoding are single-goroutine (apply
	// step 3 runs one goroutine per partition), so reuse is safe.
	vals []int64
	sc   encoding.Scratch
}

// patchRec is one journaled point patch: the slot and the synopsis
// columns the patch overlapped.
type patchRec struct {
	slot int32
	mask uint64
}

// journalShift caps the journal at 1/8 of the slots it covers, which
// keeps replay strictly cheaper than the gather it replaces: a block
// replays at most slots>>journalShift entries, and the whole log holds at
// most that share of the partition's slots — beyond it new patches mark
// their columns full instead of journaling.
const journalShift = 3

// grow extends the per-block arrays to nb blocks; new blocks start
// stale so their first ReencodeDirty builds vectors.
func (e *encStore) grow(nb int) {
	for len(e.stale) < nb {
		e.stale = append(e.stale, ^uint64(0))
		e.full = append(e.full, ^uint64(0))
		e.anyStale = true
		for i := 0; i < e.nc; i++ {
			e.vecs = append(e.vecs, nil)
		}
	}
}

// markStale flags every column of slot's block after an insert (a new
// tuple changes all column vectors). The insert is journaled like a
// patch: replay re-reads the slot's current bytes, which covers a
// recycled interior slot as well as fresh tail growth (the grown
// region is gathered from the rows anyway), so an append-heavy block
// still re-encodes incrementally.
func (e *encStore) markStale(p *Partition, slot int32) {
	z := p.zm
	e.grow(len(z.live))
	b := int(slot) >> z.shift
	e.stale[b] = ^uint64(0)
	e.anyStale = true
	if e.full[b] != ^uint64(0) {
		if len(e.jlog) < len(p.rowIDs)>>journalShift {
			e.jlog = append(e.jlog, patchRec{slot: slot, mask: ^uint64(0)})
		} else {
			e.full[b] = ^uint64(0)
		}
	}
}

// markStaleIfOverlap flags exactly the active synopsis columns the
// patch's byte range overlaps — patches to residual columns (strings,
// un-queried attributes) never invalidate vectors, and a single-column
// patch leaves the block's other vectors serving queries.
func (e *encStore) markStaleIfOverlap(p *Partition, slot int32, offset uint32, size int) {
	z := p.zm
	lo, hi := int(offset), int(offset)+size
	var mask uint64
	for _, c := range z.actCols {
		if int(c.end) > lo && int(c.off) < hi {
			mask |= 1 << uint(c.ci)
		}
	}
	if mask != 0 {
		e.grow(len(z.live))
		b := int(slot) >> z.shift
		e.stale[b] |= mask
		e.anyStale = true
		if e.full[b]&mask != mask {
			if len(e.jlog) < len(p.rowIDs)>>journalShift {
				e.jlog = append(e.jlog, patchRec{slot: slot, mask: mask})
			} else {
				e.full[b] |= mask
			}
		}
	}
}

// EnableCompression attaches per-block encoded column vectors to the
// partition. Requires an enabled zone map (the vectors ride the zone
// map's block geometry, activation set and maintenance windows) and a
// block size of at least 64 slots so selection bitmaps stay
// word-aligned; otherwise it is a no-op. Must run in a quiesced
// window. Vectors for the currently active columns are built by the
// next ReencodeDirty (all blocks start stale).
func (p *Partition) EnableCompression() {
	if p.zm == nil || p.zm.shift < 6 || p.enc != nil {
		return
	}
	p.enc = &encStore{nc: len(p.zm.cols)}
	p.enc.grow(len(p.zm.live))
}

// Compressed reports whether the partition carries encoded vectors.
func (p *Partition) Compressed() bool { return p.enc != nil }

// ReencodeDirty rebuilds the stale encoded vectors — per block, only
// the active columns whose stale bit is set — and returns how many blocks
// it rebuilt. An apply round that re-encodes calls it per partition
// inside the quiesced window, right after ResummarizeDirty (and at
// activation time); queries never read a stale vector — they see either
// a fresh one or a block flagged for tuple-at-a-time fallback.
func (p *Partition) ReencodeDirty() (blocks int) {
	e := p.enc
	if e == nil || !e.anyStale {
		return 0
	}
	z := p.zm
	// Group the patch log by block: one sort per re-encode, then each
	// block's entries are a contiguous run (block is slot>>shift, so
	// slot order is block order) consumed by an advancing cursor.
	slices.SortFunc(e.jlog, func(a, b patchRec) int { return cmp.Compare(a.slot, b.slot) })
	cur := 0
	for b, m := range e.stale {
		if m == 0 {
			continue
		}
		for cur < len(e.jlog) && int(e.jlog[cur].slot)>>z.shift < b {
			cur++
		}
		end := cur
		for end < len(e.jlog) && int(e.jlog[end].slot)>>z.shift == b {
			end++
		}
		if m &= z.active; m != 0 {
			p.encodeBlock(b, m, e.jlog[cur:end])
			blocks++
		}
		cur = end
		// Inactive-column bits can drop too: those columns carry no
		// vectors, and activation re-stales every block anyway.
		e.stale[b] = 0
		e.full[b] = 0
	}
	e.jlog = e.jlog[:0]
	e.anyStale = false
	return blocks
}

// encodeBlock (re)builds block b's vectors for the masked columns;
// unmasked columns are left untouched. An empty block drops every
// vector.
func (p *Partition) encodeBlock(b int, mask uint64, jr []patchRec) {
	e, z := p.enc, p.zm
	base := b * e.nc
	if z.live[b] == 0 {
		for ci := 0; ci < e.nc; ci++ {
			e.sc.Recycle(e.vecs[base+ci])
			e.vecs[base+ci] = nil
		}
		return
	}
	lo, hi := p.blockSlots(b)
	if cap(e.vals) < hi-lo {
		e.vals = make([]int64, hi-lo)
	}
	vals := e.vals[:hi-lo]
	replay := len(jr) <= (hi-lo)>>journalShift
	for ci := range z.cols {
		if mask&(1<<uint(ci)) == 0 {
			continue
		}
		// Dead slots are encoded as the block min: their bits in a filter
		// bitmap are ignored at materialization, and keeping them inside
		// the live value range costs no FOR width and no dictionary entry.
		// A loose (wider-than-exact) min is still a valid fill.
		syn := z.syn[base+ci]
		fill := syn.min
		if fill == math.MaxInt64 { // sentinel: column bounds not recomputed yet
			e.sc.Recycle(e.vecs[base+ci])
			e.vecs[base+ci] = nil
			continue
		}
		// ReencodeDirty runs right after ResummarizeDirty, so the synopsis
		// is exact: min == max means every live value (and the dead fill)
		// is that one value, and the block encodes without touching a row.
		if syn.min == syn.max {
			e.sc.Recycle(e.vecs[base+ci])
			e.vecs[base+ci] = encoding.Constant(hi-lo, syn.min)
			continue
		}
		off, typ := z.offs[ci], z.types[ci]
		rawBits := 64
		if typ == storage.Int32 {
			rawBits = 32
		}
		// In-place path: the column went stale through journaled point
		// writes only and the block hasn't grown, so if every patched
		// slot's current value already fits the old vector's encoded
		// domain (TryPatch), the patch lands as a bit rewrite and the
		// whole rebuild is skipped. A miss falls through to the rebuild,
		// which rewrites every journaled slot from the rows — partial
		// in-place progress is harmless.
		if old := e.vecs[base+ci]; old != nil && old.Len() == hi-lo &&
			e.full[b]&(1<<uint(ci)) == 0 && replay {
			inPlace := true
			for _, pr := range jr {
				if pr.mask&(1<<uint(ci)) == 0 {
					continue
				}
				if s := int(pr.slot); p.rowIDs[s] != 0 &&
					!old.TryPatch(s-lo, z.key(p.data[s*p.tupleSize:], ci)) {
					inPlace = false
					break
				}
			}
			if inPlace {
				continue
			}
		}
		// Incremental path: the column went stale through journaled point
		// writes, so the old vector still holds every untouched slot's
		// exact value (dead slots included — their bits are don't-cares
		// either way). Decoding it streams the compact packed payload
		// instead of striding the block's full row bytes; a grown tail is
		// gathered from the rows, and the journaled slots re-read theirs.
		if old := e.vecs[base+ci]; old != nil && old.Len() <= hi-lo &&
			e.full[b]&(1<<uint(ci)) == 0 && replay {
			old.DecodeAll(vals)
			p.gatherCol(vals[old.Len():], lo+old.Len(), hi, off, typ, fill)
			for _, pr := range jr {
				if pr.mask&(1<<uint(ci)) == 0 {
					continue
				}
				if s := int(pr.slot); p.rowIDs[s] != 0 {
					vals[s-lo] = z.key(p.data[s*p.tupleSize:], ci)
				}
			}
			// Recycle only after Encode: the new vector must not be packed
			// into the buffers DecodeAll just read from.
			nv := encoding.Encode(vals, rawBits, &e.sc)
			e.sc.Recycle(e.vecs[base+ci])
			e.vecs[base+ci] = nv
			continue
		}
		// Gather with the type switch hoisted out of the slot loop; the
		// per-value loops index the flat data array directly instead of
		// re-slicing per tuple (this gather is half the re-encode cost)
		// and fold the encoder's stats pass — min/max/run count — into
		// the same walk so Encode never re-scans the gathered values.
		data, ts := p.data, p.tupleSize
		at := lo*ts + off
		minV, maxV := int64(math.MaxInt64), int64(math.MinInt64)
		runs, prev := 0, int64(0)
		switch typ {
		case storage.Float64:
			for i := lo; i < hi; i, at = i+1, at+ts {
				v := fill
				if p.rowIDs[i] != 0 {
					v = storage.OrdKeyFloat64(math.Float64frombits(binary.LittleEndian.Uint64(data[at:])))
				}
				vals[i-lo] = v
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
				if runs == 0 || v != prev {
					runs++
					prev = v
				}
			}
		case storage.Int32:
			for i := lo; i < hi; i, at = i+1, at+ts {
				v := fill
				if p.rowIDs[i] != 0 {
					v = int64(int32(binary.LittleEndian.Uint32(data[at:])))
				}
				vals[i-lo] = v
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
				if runs == 0 || v != prev {
					runs++
					prev = v
				}
			}
		default: // Int64, Time
			for i := lo; i < hi; i, at = i+1, at+ts {
				v := fill
				if p.rowIDs[i] != 0 {
					v = int64(binary.LittleEndian.Uint64(data[at:]))
				}
				vals[i-lo] = v
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
				if runs == 0 || v != prev {
					runs++
					prev = v
				}
			}
		}
		e.sc.Recycle(e.vecs[base+ci])
		e.vecs[base+ci] = encoding.EncodeStats(vals, rawBits, &e.sc, minV, maxV, runs)
	}
}

// gatherCol reads slots [slo, shi) of the column at byte offset off
// into dst, substituting fill for dead slots — the plain (stats-free)
// gather behind the incremental path's grown-tail region.
func (p *Partition) gatherCol(dst []int64, slo, shi, off int, typ storage.Type, fill int64) {
	data, ts := p.data, p.tupleSize
	at := slo*ts + off
	switch typ {
	case storage.Float64:
		for i := slo; i < shi; i, at = i+1, at+ts {
			if p.rowIDs[i] == 0 {
				dst[i-slo] = fill
				continue
			}
			dst[i-slo] = storage.OrdKeyFloat64(math.Float64frombits(binary.LittleEndian.Uint64(data[at:])))
		}
	case storage.Int32:
		for i := slo; i < shi; i, at = i+1, at+ts {
			if p.rowIDs[i] == 0 {
				dst[i-slo] = fill
				continue
			}
			dst[i-slo] = int64(int32(binary.LittleEndian.Uint32(data[at:])))
		}
	default: // Int64, Time
		for i := slo; i < shi; i, at = i+1, at+ts {
			if p.rowIDs[i] == 0 {
				dst[i-slo] = fill
				continue
			}
			dst[i-slo] = int64(binary.LittleEndian.Uint64(data[at:]))
		}
	}
}

// FilterRange evaluates the conjunction of ranges over the slot range
// [lo, hi) directly on the encoded blocks, writing the exact selection
// bitmap into sel: bit i of sel corresponds to slot lo+i and is set
// iff that slot's values satisfy every conjunct — including IN-list
// membership (ColRange.Set) — up to dead-slot don't-cares, which
// LiveSlots filters at materialization. sel must hold at least
// ceil((hi-lo)/64) words; its prior contents are overwritten.
//
// It returns false — and leaves sel undefined — when the encoded path
// cannot serve the range exactly: compression disabled, a misaligned
// range, a queried column stale in some block, an inactive conjunct
// column, or a block-column that did not encode. The caller then falls
// back to tuple-at-a-time kernels; with morsel size equal to block size
// that fallback is per-block, exactly the granularity the encodings are
// chosen at.
func (p *Partition) FilterRange(lo, hi int, ranges []ColRange, sel []uint64) bool {
	e, z := p.enc, p.zm
	if e == nil || len(ranges) == 0 {
		return false
	}
	if hi > len(p.rowIDs) {
		hi = len(p.rowIDs)
	}
	// Bitmap words and blocks must line up: the range starts on a block
	// boundary and ends on one (or at the partition's end).
	if lo < 0 || lo >= hi || lo&(z.block-1) != 0 {
		return false
	}
	if hi&(z.block-1) != 0 && hi != len(p.rowIDs) {
		return false
	}
	// Validate first so sel is never half-written on fallback.
	for b := lo >> z.shift; b<<z.shift < hi; b++ {
		if z.live[b] == 0 {
			continue
		}
		for _, r := range ranges {
			if r.Col < 0 || r.Col >= len(z.colPos) {
				return false
			}
			ci := z.colPos[r.Col]
			if ci < 0 || z.active&(1<<uint(ci)) == 0 ||
				e.stale[b]&(1<<uint(ci)) != 0 || e.vecs[b*e.nc+ci] == nil {
				return false
			}
		}
	}
	for b := lo >> z.shift; b<<z.shift < hi; b++ {
		blo, bhi := p.blockSlots(b)
		words := sel[(blo-lo)>>6 : (blo-lo)>>6+(bhi-blo+63)>>6]
		if z.live[b] == 0 {
			for i := range words {
				words[i] = 0
			}
			continue
		}
		for i := range words {
			words[i] = ^uint64(0)
		}
		for _, r := range ranges {
			ci := z.colPos[r.Col]
			e.vecs[b*e.nc+ci].FilterAnd(words, r.Lo, r.Hi, r.Set)
		}
	}
	return true
}

// SumLiveRange computes the sum of column col over the slot range
// [lo, hi) directly on the encoded blocks, returning the true column
// sum (float columns are converted back from their ord keys per
// distinct value or run) and the number of tuples it covers. Like
// FilterRange, the range must be block-aligned and every covered
// column vector current; additionally every non-empty block must be
// fully live — dead slots are encoded as the block's synopsis min, so
// a partially live block's encoded sum would count phantom values.
// It returns ok=false, with sum/rows undefined, when any block cannot
// be served; the caller falls back to tuple-at-a-time aggregation,
// per-block when morsel size equals block size.
func (p *Partition) SumLiveRange(lo, hi, col int) (sum float64, rows int64, ok bool) {
	e, z := p.enc, p.zm
	if e == nil {
		return 0, 0, false
	}
	if hi > len(p.rowIDs) {
		hi = len(p.rowIDs)
	}
	if lo < 0 || lo >= hi || lo&(z.block-1) != 0 {
		return 0, 0, false
	}
	if hi&(z.block-1) != 0 && hi != len(p.rowIDs) {
		return 0, 0, false
	}
	if col < 0 || col >= len(z.colPos) {
		return 0, 0, false
	}
	ci := z.colPos[col]
	if ci < 0 || z.active&(1<<uint(ci)) == 0 {
		return 0, 0, false
	}
	isFloat := z.types[ci] == storage.Float64
	for b := lo >> z.shift; b<<z.shift < hi; b++ {
		blo, bhi := p.blockSlots(b)
		if z.live[b] == 0 {
			continue
		}
		v := e.vecs[b*e.nc+ci]
		if int(z.live[b]) != bhi-blo || e.stale[b]&(1<<uint(ci)) != 0 || v == nil {
			return 0, 0, false
		}
		if isFloat {
			sum += v.SumConv(storage.Float64FromOrdKey)
		} else {
			sum += float64(v.SumInt())
		}
		rows += int64(bhi - blo)
	}
	return sum, rows, true
}

// ColCompression aggregates one column's encoded footprint across the
// blocks of a partition or table (the compression-ratio report of the
// compress benchmark). RawBytes counts the column's raw fixed-width
// footprint over the same blocks; blocks that did not encode count
// their raw size in EncodedBytes too, so the ratio is honest about
// fallbacks.
type ColCompression struct {
	Col          int
	RawBytes     int64
	EncodedBytes int64
	Blocks       int
	// Kinds counts blocks by encoding (indexed by encoding.Kind; None
	// are the fallback blocks).
	Kinds [4]int
}

// compressionStatsInto folds the partition's per-block encoding state
// for every active column into out (indexed by synopsis column slot).
func (p *Partition) compressionStatsInto(out []ColCompression) {
	e, z := p.enc, p.zm
	if e == nil {
		return
	}
	for ci, col := range z.cols {
		if z.active&(1<<uint(ci)) == 0 {
			continue
		}
		cc := &out[ci]
		cc.Col = col
		w := int64(p.schema.ColSize(col))
		for b := range z.live {
			lo, hi := p.blockSlots(b)
			if hi == lo {
				continue
			}
			raw := int64(hi-lo) * w
			cc.Blocks++
			cc.RawBytes += raw
			if v := e.vecs[b*e.nc+ci]; v != nil && e.stale[b]&(1<<uint(ci)) == 0 {
				cc.EncodedBytes += int64(v.EncodedBytes())
				cc.Kinds[v.Kind()]++
			} else {
				cc.EncodedBytes += raw
				cc.Kinds[encoding.None]++
			}
		}
	}
}

// CompressionStats reports the table's per-column encoded footprint
// for every active synopsis column, in synopsis-column order. Empty
// when compression is disabled.
func (t *Table) CompressionStats() []ColCompression {
	if len(t.Partitions) == 0 || t.Partitions[0].zm == nil {
		return nil
	}
	out := make([]ColCompression, len(t.Partitions[0].zm.cols))
	for _, p := range t.Partitions {
		p.compressionStatsInto(out)
	}
	trimmed := out[:0]
	for _, cc := range out {
		if cc.Blocks > 0 {
			trimmed = append(trimmed, cc)
		}
	}
	return trimmed
}
