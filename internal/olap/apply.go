package olap

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

// mergeHeapThreshold is the stream count above which mergeByVIDInto
// switches from a linear min-scan (O(k) per run, cache-friendly, wins
// for the handful of OLTP workers typical of one primary) to a binary
// heap (O(log k) per run, wins once many primaries or replayed segments
// fan into one table). BenchmarkMergeByVID puts the crossover between
// 16 and 64 streams on our reference machine (short equal-VID runs make
// the min-scan's per-run O(k) cheap in practice), hence 16.
const mergeHeapThreshold = 16

// routeShardMin is the minimum number of merged entries each routing
// goroutine must have before step 2 is worth sharding; below
// 2*routeShardMin the serial loop wins (goroutine hand-off costs more
// than hashing a few thousand RowIDs).
const routeShardMin = 4096

// applyScratch holds one table's reusable apply buffers, so steady-state
// rounds allocate nothing for merging and routing. Safe without locks:
// exactly one goroutine applies a given table per round, and rounds are
// serialized by the scheduler. Buffer shapes are revalidated against the
// current partition count each round, because a resync reload recreates
// t.Partitions. Every buffer is empty and zeroed between rounds (see
// release).
//
// Steps 1 and 2 order and route the round's entries by reference: an
// entry stays where the push that carried it was decoded and is read
// once, by step 3.
type applyScratch struct {
	// streams is step 1's input, filled by groupStreams: one VID-ordered
	// stream per worker that pushed entries for this table.
	streams []workerStream
	// merged is the step-1 output buffer: the streams' entries in VID
	// order.
	merged []*proplog.Entry
	// perPart is the step-2 output: one VID-ordered slice per partition.
	perPart [][]*proplog.Entry
	// router holds the per-goroutine per-partition buffers of step 2's
	// sharded routing, grown to the worker count on demand.
	router [][][]*proplog.Entry
}

// addRun appends run, a VID-ordered piece of one worker's push, to that
// worker's stream. A stream's first run is aliased, not copied — in the
// common round one push feeds each (table, worker) stream — and carries
// no spare capacity, so a second run's append copies instead of writing
// into the batch.
func (sc *applyScratch) addRun(worker int, run []proplog.Entry) {
	for i := range sc.streams {
		if s := &sc.streams[i]; s.worker == worker {
			s.entries = append(s.entries, run...)
			return
		}
	}
	sc.streams = append(sc.streams, workerStream{worker: worker, entries: run[:len(run):len(run)]})
}

// release empties every buffer and zeroes the references the round
// wrote. A slice cut back to [:0] keeps its elements reachable, and each
// entry pins the whole receive chunk its Data aliases: without the clear,
// a table's largest round would hold its chunks until an equally large
// round overwrote every slot — for a rarely updated table, forever.
func (sc *applyScratch) release() {
	clear(sc.streams)
	sc.streams = sc.streams[:0]
	clear(sc.merged)
	sc.merged = sc.merged[:0]
	for i := range sc.perPart {
		clear(sc.perPart[i])
		sc.perPart[i] = sc.perPart[i][:0]
	}
	for _, buf := range sc.router {
		for i := range buf {
			clear(buf[i])
			buf[i] = buf[i][:0]
		}
	}
}

// TableApplyStats breaks down update application for one relation, the
// measurements behind paper Table 1.
type TableApplyStats struct {
	Step1, Step2, Step3        time.Duration
	Inserted, Updated, Deleted int
}

// ApplyStats summarizes one application round (paper Fig. 4).
type ApplyStats struct {
	// Target is the snapshot VID applied up to (inclusive).
	Target uint64
	// Entries counts applied update entries.
	Entries int
	// Reloaded reports that a staged resync snapshot replaced the
	// replica's contents at the start of this round.
	Reloaded bool
	// Maintained reports that the round had synopsis or encoded-vector
	// maintenance to do, whether or not it had entries.
	Maintained bool
	// Step1 orders per-worker update sets by VID; Step2 routes them to
	// partitions by hash(RowID); Step3 applies them through the RowID
	// hash index. Step3 is CPU time summed over parallel partition
	// workers, matching the paper's per-step CPU-time accounting.
	Step1, Step2, Step3 time.Duration
	// PerTable splits the work by relation.
	PerTable map[storage.TableID]*TableApplyStats

	// reencoded counts the blocks whose encoded vectors the round rebuilt;
	// the scheduler folds it into its counter.
	reencoded int
}

// ApplyPending applies every queued update with VID <= target, in VID
// order per table — the three-step algorithm of paper §5/Fig. 4, run
// concurrently across tables with leaf work (routing shards, partition
// applies) bounded by the replica's apply-worker budget. Updates beyond
// target are requeued for the next round. Rounds must not run
// concurrently with each other (the scheduler's apply loop, or a direct
// caller, is the single writer).
//
// The replica has one version and a round writes it in place: it waits
// until no reader holds a pin, and a pin that arrives while it runs
// waits for it and reads its result. A batch therefore reads exactly the
// VID it pinned.
//
// A failed round bumps no table version and leaves the applied VID
// where it was, but the failed tables are half-applied, which is why the
// error is sticky (applyErr) and the scheduler treats it as fatal.
//
// A round started here re-encodes every stale block before it returns;
// the scheduler's rounds go through applyPending and say whether they do.
func (r *Replica) ApplyPending(target uint64) (ApplyStats, error) {
	return r.applyPending(target, true)
}

// applyPending is ApplyPending with the round's maintenance spelt out:
// synopses are re-summarized in every round, stale encoded vectors are
// rebuilt only when reencode is set — until then FilterRange and
// SumLiveRange refuse their blocks and the scan reads the rows.
func (r *Replica) applyPending(target uint64, reencode bool) (ApplyStats, error) {
	// Take the staged resync snapshot (reconnect after connection loss),
	// the queued batches and the floor in one atomic step: batches that
	// were spliced in together with a reload must never be drained
	// without it (they would land on stale pre-reconnect data and then
	// be wiped by the reload, unrecoverable below its floor).
	rl, batches, floor := r.takeWork()
	stats := ApplyStats{Target: target, PerTable: make(map[storage.TableID]*TableApplyStats)}
	stats.Maintained = r.needsMaintenance(reencode)
	if rl == nil && len(batches) == 0 && target <= r.AppliedVID() && !stats.Maintained {
		return stats, nil // nothing to apply
	}

	r.beginRound()
	defer r.endRound()
	outs, err := r.applyRound(&stats, rl, batches, floor, target, reencode)
	if err != nil {
		r.mu.Lock()
		r.applyErr = err
		r.mu.Unlock()
		return stats, err
	}
	r.mu.Lock()
	for ti, t := range r.order {
		if o := outs[ti]; o != nil && o.entries > 0 {
			t.version++
		}
	}
	if target > r.applied {
		r.applied = target
	}
	r.mu.Unlock()
	return stats, nil
}

// tableOut is one table's outcome of an apply round.
type tableOut struct {
	ts        *TableApplyStats
	entries   int
	reencoded int
	err       error
}

// applyRound is the body of one round: optional reload, stream grouping,
// the per-table pipelines, and the fold of their stats into st. It
// returns one outcome per registered table (nil for tables the round did
// not touch) and the first error in registration order.
func (r *Replica) applyRound(st *ApplyStats, rl *Reload, batches []proplog.Batch, floor, target uint64, reencode bool) ([]*tableOut, error) {
	if rl != nil {
		// The reload installs first: it raises the floor so stale queued
		// updates the snapshot already contains are discarded below.
		if err := r.applyReload(rl); err != nil {
			return nil, fmt.Errorf("olap: resync reload: %w", err)
		}
		st.Reloaded = true
		if rl.vid > floor {
			floor = rl.vid
		}
	}
	r.groupStreams(batches, floor, target)

	// Run the per-table pipelines concurrently: the multi-table TPC-C
	// update mix touches eight relations whose steps 1–2 would otherwise
	// run back-to-back on one goroutine. The shared semaphore keeps total
	// leaf parallelism (across all tables) at the apply-worker budget. A
	// table participates when it has entries or a pending maintenance
	// step (requested-but-inactive synopsis columns — a reload rebuilt
	// them empty — or, in a round that re-encodes, stale encoded blocks).
	sem := make(chan struct{}, r.applyWorkers)
	outs := make([]*tableOut, len(r.order))
	var wg sync.WaitGroup
	for ti, t := range r.order {
		if len(t.scratch.streams) == 0 && !t.needsMaintenance(reencode) {
			continue
		}
		wg.Add(1)
		go func(ti int, t *Table) {
			defer wg.Done()
			outs[ti] = r.applyTable(t, sem, reencode)
		}(ti, t)
	}
	wg.Wait()

	// Fold per-table outcomes in registration order so stats and the
	// reported error are deterministic regardless of completion order.
	var firstErr error
	for ti, t := range r.order {
		o := outs[ti]
		if o == nil {
			continue
		}
		st.PerTable[t.Schema.ID] = o.ts
		st.Entries += o.entries
		st.Step1 += o.ts.Step1
		st.Step2 += o.ts.Step2
		st.Step3 += o.ts.Step3
		st.reencoded += o.reencoded
		if o.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("olap: apply to table %s: %w", t.Schema.Name, o.err)
		}
	}
	return outs, firstErr
}

// groupStreams groups entries by table into each table's scratch,
// keeping one VID-ordered stream per worker (a worker's commits are
// VID-monotonic, and batches arrive in push order, so concatenation per
// worker preserves order). Entries at or below floor are dropped; entries
// beyond target are requeued at the front of the pending queue for the
// next round.
//
// A table batch is VID-ordered, so what a round takes from it is one
// contiguous run, found by binary search and aliased (addRun), and so is
// a requeued tail. Streams are only read from here on.
func (r *Replica) groupStreams(batches []proplog.Batch, floor, target uint64) {
	var leftover []proplog.Batch
	for _, b := range batches {
		for _, tb := range b.Tables {
			es := tb.Entries
			lo := sort.Search(len(es), func(i int) bool { return es[i].VID > floor })
			hi := lo + sort.Search(len(es)-lo, func(i int) bool { return es[lo+i].VID > target })
			if hi < len(es) {
				leftover = appendLeftover(leftover, b.Worker, tb.Table, es[hi:])
			}
			if t := r.tables[tb.Table]; t != nil && lo < hi {
				t.scratch.addRun(b.Worker, es[lo:hi])
			}
		}
	}
	if len(leftover) > 0 {
		r.mu.Lock()
		r.pending = append(leftover, r.pending...)
		r.mu.Unlock()
	}
}

// needsMaintenance reports whether the partition has requested-but-
// inactive synopsis columns (w is the table's request mask) or — for a
// round that re-encodes — stale encoded blocks: work an apply round must
// pick up even with no entries for it.
func (p *Partition) needsMaintenance(w uint64, reencode bool) bool {
	return p.zm != nil && ((w != 0 && p.zm.active&w != w) || (reencode && p.enc != nil && p.enc.anyStale))
}

func (t *Table) needsMaintenance(reencode bool) bool {
	w := t.wantedSyn.Load()
	for _, p := range t.Partitions {
		if p.needsMaintenance(w, reencode) {
			return true
		}
	}
	return false
}

func (r *Replica) needsMaintenance(reencode bool) bool {
	for _, t := range r.order {
		if t.needsMaintenance(reencode) {
			return true
		}
	}
	return false
}

// applyTable runs the three apply steps for one table, mutating its
// partitions and PK index in place. Leaf tasks acquire sem; the caller's
// per-table goroutine itself does not, so a round with more tables than
// workers cannot deadlock.
func (r *Replica) applyTable(t *Table, sem chan struct{}, reencode bool) *tableOut {
	ts := &TableApplyStats{}
	sc := &t.scratch
	defer sc.release()

	// Step 1: merge the per-worker streams into one VID-ordered stream
	// ("the fastest step"), reusing the table's merge buffer.
	start := time.Now()
	sc.merged = mergeByVIDInto(sc.merged, sc.streams)
	merged := sc.merged
	ts.Step1 = time.Since(start)

	// Step 2: route entries to partitions by hash(RowID), preserving
	// VID order within each partition. Large rounds shard the routing
	// across goroutines; per-round buffers are reused.
	start = time.Now()
	nparts := len(t.Partitions)
	if len(sc.perPart) != nparts { // revalidated: a resync reload resizes partitions
		sc.perPart = make([][]*proplog.Entry, nparts)
	}
	perPart := sc.perPart
	nG := 1
	if r.applyWorkers > 1 && len(merged) >= 2*routeShardMin {
		nG = len(merged) / routeShardMin
		if nG > r.applyWorkers {
			nG = r.applyWorkers
		}
	}
	if nG <= 1 {
		for _, e := range merged {
			h := e.RowID * 0x9E3779B97F4A7C15
			perPart[h%uint64(nparts)] = append(perPart[h%uint64(nparts)], e)
		}
	} else {
		// Contiguous chunks keep VID order: chunk g holds strictly
		// earlier stream positions than chunk g+1, so concatenating each
		// partition's buffers in chunk order reproduces the serial
		// routing exactly.
		if len(sc.router) < nG {
			sc.router = append(sc.router, make([][][]*proplog.Entry, nG-len(sc.router))...)
		}
		var rwg sync.WaitGroup
		for g := 0; g < nG; g++ {
			if len(sc.router[g]) != nparts {
				sc.router[g] = make([][]*proplog.Entry, nparts)
			}
			lo, hi := g*len(merged)/nG, (g+1)*len(merged)/nG
			rwg.Add(1)
			go func(buf [][]*proplog.Entry, chunk []*proplog.Entry) {
				defer rwg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				for _, e := range chunk {
					h := e.RowID * 0x9E3779B97F4A7C15
					buf[h%uint64(nparts)] = append(buf[h%uint64(nparts)], e)
				}
			}(sc.router[g], merged[lo:hi])
		}
		rwg.Wait()
		for pi := 0; pi < nparts; pi++ {
			for g := 0; g < nG; g++ {
				perPart[pi] = append(perPart[pi], sc.router[g][pi]...)
			}
		}
	}
	ts.Step2 = time.Since(start)

	// Step 3: apply per touched partition in parallel through the RowID
	// hash index (the expensive, random-access step).
	w := t.wantedSyn.Load()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	out := &tableOut{ts: ts, entries: len(merged)}
	for pi, p := range t.Partitions {
		entries := perPart[pi]
		if len(entries) == 0 && !p.needsMaintenance(w, reencode) {
			continue
		}
		wg.Add(1)
		go func(pi int, p *Partition, entries []*proplog.Entry) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t0 := time.Now()
			// Activate the synopsis columns the last query batches
			// requested before new entries land — the incremental
			// maintenance below then covers exactly the active set.
			p.ActivateSynopsisCols(w)
			ins, upd, del, err := applyToPartition(p, entries, t.pkIdx, t.pkFn, pi)
			blocks := 0
			if err == nil {
				// Re-summarize blocks this round's deletes and
				// bound-narrowing updates dirtied, inside the same
				// per-partition-parallel window (and the same Step3
				// timing) — queries never see a dirty block.
				p.ResummarizeDirty()
				// Then, in a round that re-encodes, rebuild the encoded
				// vectors of the blocks that inserts and patches staled
				// since the last such round, after the synopses are exact
				// again (re-encoding reuses the block min as fill and FOR
				// base). In any other round the blocks stay flagged.
				if reencode {
					blocks = p.ReencodeDirty()
				}
			}
			d := time.Since(t0)
			mu.Lock()
			out.reencoded += blocks
			ts.Step3 += d
			ts.Inserted += ins
			ts.Updated += upd
			ts.Deleted += del
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(pi, p, entries)
	}
	wg.Wait()
	out.err = firstErr
	return out
}

// appendLeftover adds a (worker, table) batch's requeued tail to batches,
// aliasing it when it starts that pair's entry list.
func appendLeftover(batches []proplog.Batch, worker int, table storage.TableID, es []proplog.Entry) []proplog.Batch {
	es = es[:len(es):len(es)]
	for i := range batches {
		if batches[i].Worker == worker {
			for j := range batches[i].Tables {
				if batches[i].Tables[j].Table == table {
					batches[i].Tables[j].Entries = append(batches[i].Tables[j].Entries, es...)
					return batches
				}
			}
			batches[i].Tables = append(batches[i].Tables, proplog.TableBatch{Table: table, Entries: es})
			return batches
		}
	}
	return append(batches, proplog.Batch{
		Worker: worker,
		Tables: []proplog.TableBatch{{Table: table, Entries: es}},
	})
}

// MergeWorkerStreams merges per-worker VID-ordered entry streams into
// one VID-ordered stream (step 1 of the apply algorithm), exposed for
// harnesses that apply update streams to alternative storage layouts
// (the column-store microbenchmark of paper §8.3).
func MergeWorkerStreams(streams [][]proplog.Entry) []proplog.Entry {
	ws := make([]workerStream, len(streams))
	for i, s := range streams {
		ws[i] = workerStream{worker: i, entries: s}
	}
	refs := mergeByVIDInto(nil, ws)
	out := make([]proplog.Entry, len(refs))
	for i, e := range refs {
		out[i] = *e
	}
	return out
}

// workerStream is one worker's VID-ordered entry stream for one table.
type workerStream struct {
	worker  int
	entries []proplog.Entry
}

// mergeByVIDInto k-way merges per-worker VID-sorted streams into one
// VID-ordered stream of references (paper Fig. 4 step 1), appended to out
// (typically a reused buffer). Both strategies take whole runs of
// equal-VID entries from the winning stream, so one transaction's updates
// stay contiguous, and break VID ties by stream position — the heap path
// is entry-for-entry identical to the linear path.
func mergeByVIDInto(out []*proplog.Entry, ws []workerStream) []*proplog.Entry {
	if len(ws) > mergeHeapThreshold {
		return mergeHeapInto(out, ws)
	}
	return mergeLinearInto(out, ws)
}

// mergeLinearInto is the small-k strategy: re-scan every stream head for
// each run. O(k) per run but branch-predictable and allocation-free.
func mergeLinearInto(out []*proplog.Entry, ws []workerStream) []*proplog.Entry {
	total := 0
	for _, s := range ws {
		total += len(s.entries)
	}
	want := len(out) + total
	heads := make([]int, len(ws))
	for len(out) < want {
		best := -1
		var bestVID uint64
		for i, s := range ws {
			if heads[i] >= len(s.entries) {
				continue
			}
			v := s.entries[heads[i]].VID
			if best == -1 || v < bestVID {
				best, bestVID = i, v
			}
		}
		// Take the whole run of equal-VID entries from the winning
		// stream (one transaction's updates stay contiguous).
		s := ws[best]
		for heads[best] < len(s.entries) && s.entries[heads[best]].VID == bestVID {
			out = append(out, &s.entries[heads[best]])
			heads[best]++
		}
	}
	return out
}

// mergeHeapInto is the large-k strategy: a binary min-heap of stream
// indices ordered by (head VID, stream index) — the secondary key
// replicates the linear scan's first-stream-wins tie-break.
func mergeHeapInto(out []*proplog.Entry, ws []workerStream) []*proplog.Entry {
	heads := make([]int, len(ws))
	h := make([]int, 0, len(ws))
	less := func(a, b int) bool {
		va, vb := ws[a].entries[heads[a]].VID, ws[b].entries[heads[b]].VID
		if va != vb {
			return va < vb
		}
		return a < b
	}
	siftDown := func(i int) {
		for {
			l, rc := 2*i+1, 2*i+2
			min := i
			if l < len(h) && less(h[l], h[min]) {
				min = l
			}
			if rc < len(h) && less(h[rc], h[min]) {
				min = rc
			}
			if min == i {
				return
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	for i, s := range ws {
		if len(s.entries) > 0 {
			h = append(h, i)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		best := h[0]
		s := ws[best]
		v := s.entries[heads[best]].VID
		for heads[best] < len(s.entries) && s.entries[heads[best]].VID == v {
			out = append(out, &s.entries[heads[best]])
			heads[best]++
		}
		if heads[best] >= len(s.entries) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDown(0)
		}
	}
	return out
}

// applyToPartition executes step 3 for one partition: updates and
// deletes locate their tuple through the RowID hash index; inserts take
// the next free slot. Consecutive field patches of the same tuple from
// the same transaction share a single index lookup and count as one
// updated tuple — the paper's Ptup counts tuples, not patches. pk (nil
// when the table has none) is the table's PK index, kept in step with
// the slots: pi is p's ordinal in its table, which with the slot makes a
// row's locator.
func applyToPartition(p *Partition, entries []*proplog.Entry, pk *flatIndex, pkFn func([]byte) uint64, pi int) (ins, upd, del int, err error) {
	for i := 0; i < len(entries); i++ {
		e := entries[i]
		switch e.Kind {
		case proplog.Insert:
			if aerr := insertIndexed(p, pi, e.RowID, e.Data, pk, pkFn); aerr != nil {
				return ins, upd, del, aerr
			}
			ins++
		case proplog.Update:
			slot, ok := p.Locate(e.RowID)
			if !ok {
				return ins, upd, del, fmt.Errorf("olap: update of unknown RowID %d", e.RowID)
			}
			if aerr := p.PatchSlot(slot, e.Offset, e.Data); aerr != nil {
				return ins, upd, del, aerr
			}
			for i+1 < len(entries) && entries[i+1].Kind == proplog.Update &&
				entries[i+1].RowID == e.RowID && entries[i+1].VID == e.VID {
				i++
				if aerr := p.PatchSlot(slot, entries[i].Offset, entries[i].Data); aerr != nil {
					return ins, upd, del, aerr
				}
			}
			upd++
		case proplog.Delete:
			slot, ok := p.Locate(e.RowID)
			if !ok {
				return ins, upd, del, fmt.Errorf("olap: delete of unknown RowID %d in table %s", e.RowID, p.schema.Name)
			}
			if pk != nil {
				pk.del(pkFn(p.Tuple(slot)), pkLoc(pi, slot))
			}
			p.deleteSlot(e.RowID, slot)
			del++
		default:
			return ins, upd, del, fmt.Errorf("olap: unknown update kind %d", e.Kind)
		}
	}
	return ins, upd, del, nil
}
