package olap

import (
	"fmt"
	"sort"
	"time"

	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

// routeShardMin is the minimum number of merged entries each step-2
// routing chunk must have before a table's routing is split; below
// 2*routeShardMin one chunk wins (a pool hand-off costs more than
// hashing a few thousand keys).
const routeShardMin = 4096

// applyScratch holds one table's reusable apply buffers, so steady-state
// rounds allocate nothing for merging and routing. Safe without locks:
// rounds are serialized, and within one the pool tasks of a phase touch
// disjoint parts of it — step 1 the table's merged stream, a step-2
// chunk its own router buffer, a step-3 task its partition's slot in
// each — with ForEach's return between phases. Buffer shapes are
// revalidated against the current partition count each round, because a
// resync reload recreates t.Partitions. Every buffer is empty and zeroed
// between rounds (see release).
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
	// router is step 2's output: for each of the round's routing chunks
	// (contiguous pieces of merged, in order), one VID-ordered slice per
	// partition. chunks counts the ones in use; step 3 appends the later
	// chunks' slices to chunk 0's (partEntries).
	router [][][]*proplog.Entry
	chunks int
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
	for _, buf := range sc.router {
		for i := range buf {
			clear(buf[i])
			buf[i] = buf[i][:0]
		}
	}
	sc.chunks = 0
}

// route sets up the round's step 2 for this table: chunks routing
// chunks over nparts partitions, with a router buffer each.
func (sc *applyScratch) route(chunks, nparts int) {
	if len(sc.router) < chunks {
		sc.router = append(sc.router, make([][][]*proplog.Entry, chunks-len(sc.router))...)
	}
	for g := 0; g < chunks; g++ {
		if len(sc.router[g]) != nparts { // revalidated: a resync reload resizes partitions
			sc.router[g] = make([][]*proplog.Entry, nparts)
		}
	}
	sc.chunks = chunks
}

// routeChunk routes chunk g of the merged stream to the partitions its
// keys hash to (partitionOf). Contiguous chunks keep VID order: chunk g
// holds strictly earlier stream positions than chunk g+1.
func (sc *applyScratch) routeChunk(g int) {
	n := len(sc.merged)
	buf := sc.router[g]
	for _, e := range sc.merged[g*n/sc.chunks : (g+1)*n/sc.chunks] {
		pi := partitionOf(e.Key, len(buf))
		buf[pi] = append(buf[pi], e)
	}
}

// routed counts the entries step 2 sent to partition pi.
func (sc *applyScratch) routed(pi int) int {
	n := 0
	for _, buf := range sc.router[:sc.chunks] {
		n += len(buf[pi])
	}
	return n
}

// partEntries returns partition pi's entries in VID order: chunk 0's
// slice with the later chunks' appended in chunk order, which is exactly
// what routing the whole stream in one piece would have produced.
func (sc *applyScratch) partEntries(pi int) []*proplog.Entry {
	if sc.chunks == 0 {
		return nil
	}
	es := sc.router[0][pi]
	for _, buf := range sc.router[1:sc.chunks] {
		es = append(es, buf[pi]...)
	}
	sc.router[0][pi] = es
	return es
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
	// Maintained reports that the round had synopsis maintenance to do,
	// whether or not it had entries.
	Maintained bool
	// Step1 orders per-worker update sets by VID; Step2 routes them to
	// partitions by hash(key); Step3 applies them through each
	// partition's key index. Each is CPU time summed over the round's
	// pool tasks, matching the paper's per-step CPU-time accounting.
	Step1, Step2, Step3 time.Duration
	// PerTable splits the work by relation.
	PerTable map[storage.TableID]*TableApplyStats
}

// ApplyPending applies every queued update with VID <= target, in VID
// order per table — the three-step algorithm of paper §5/Fig. 4, each
// step one fan-out across all tables on the replica's pool (see
// applyRound). Updates beyond target are requeued for the next round.
// Rounds must not run concurrently with each other (the scheduler's
// loop, or a direct caller, is the single writer).
//
// The replica has one version and a round writes it in place: it waits
// until no reader holds a pin, and a pin that arrives while it runs
// waits for it and reads its result. A batch therefore reads exactly the
// VID it pinned.
//
// A failed round bumps no table version and leaves the applied VID
// where it was, but the failed tables are half-applied, which is why the
// error is sticky: every later call returns it without taking work, and
// the scheduler treats it as fatal.
//
// Every round does the same maintenance, whatever started it: it
// activates the requested synopsis columns and re-summarizes the blocks
// it dirtied.
func (r *Replica) ApplyPending(target uint64) (ApplyStats, error) {
	stats := ApplyStats{Target: target, PerTable: make(map[storage.TableID]*TableApplyStats)}
	r.mu.Lock()
	err := r.applyErr
	r.mu.Unlock()
	if err != nil {
		return stats, err
	}
	// Take the staged resync snapshot (reconnect after connection loss),
	// the queued batches and the floor in one atomic step: batches that
	// were spliced in together with a reload must never be drained
	// without it (they would land on stale pre-reconnect data and then
	// be wiped by the reload, unrecoverable below its floor).
	rl, batches, floor := r.takeWork()
	stats.Maintained = r.needsMaintenance()
	if rl == nil && len(batches) == 0 && target <= r.AppliedVID() && !stats.Maintained {
		return stats, nil // nothing to apply
	}

	r.beginRound()
	defer r.endRound()
	outs, err := r.applyRound(&stats, rl, batches, floor, target)
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
	ts      TableApplyStats
	entries int
	err     error
}

// partOut is one (table, partition) step-3 task's outcome.
type partOut struct {
	step2, step3  time.Duration
	ins, upd, del int
	err           error
}

// applyRound is the body of one round: optional reload, stream grouping,
// then the three steps as three flat phases on the replica's pool — step
// 1 per touched table, step 2 per routing chunk across all tables, step 3
// (with synopsis maintenance) per touched (table, partition) — and the
// fold of their stats into st. A table is touched when it has entries or
// requested-but-inactive synopsis columns (a reload rebuilt them empty).
// It returns one outcome per registered table (nil for tables the round
// did not touch) and the first error in registration order.
func (r *Replica) applyRound(st *ApplyStats, rl *Reload, batches []proplog.Batch, floor, target uint64) ([]*tableOut, error) {
	if rl != nil {
		// The reload installs first: it raises the floor so stale queued
		// updates the snapshot already contains are discarded below.
		r.applyReload(rl)
		st.Reloaded = true
		if rl.vid > floor {
			floor = rl.vid
		}
	}
	r.groupStreams(batches, floor, target)
	outs := make([]*tableOut, len(r.order))
	var touched []int
	for ti, t := range r.order {
		if len(t.scratch.streams) > 0 || t.needsMaintenance() {
			outs[ti] = &tableOut{}
			touched = append(touched, ti)
		}
	}
	defer func() {
		for _, ti := range touched {
			r.order[ti].scratch.release()
		}
	}()

	// Step 1: merge each table's per-worker streams into one VID-ordered
	// stream ("the fastest step"), reusing the table's merge buffer.
	r.pool.ForEach(len(touched), func(_, i int) {
		sc, o := &r.order[touched[i]].scratch, outs[touched[i]]
		start := time.Now()
		sc.merged = mergeByVIDInto(sc.merged, sc.streams)
		o.entries = len(sc.merged)
		o.ts.Step1 = time.Since(start)
	})

	// Step 2: route entries to partitions by hash(key), preserving VID
	// order within each partition. A large table's stream is cut into
	// contiguous chunks routed as separate tasks.
	type chunk struct{ ti, g int }
	var chunks []chunk
	for _, ti := range touched {
		t := r.order[ti]
		n := len(t.scratch.merged)
		if n == 0 {
			continue
		}
		nG := max(min(n/routeShardMin, r.pool.Workers()), 1)
		t.scratch.route(nG, len(t.Partitions))
		for g := 0; g < nG; g++ {
			chunks = append(chunks, chunk{ti, g})
		}
	}
	step2 := make([]time.Duration, len(chunks))
	r.pool.ForEach(len(chunks), func(_, i int) {
		start := time.Now()
		r.order[chunks[i].ti].scratch.routeChunk(chunks[i].g)
		step2[i] = time.Since(start)
	})
	for i, c := range chunks {
		outs[c.ti].ts.Step2 += step2[i]
	}

	// Step 3: apply per touched partition through its key index (the
	// expensive, random-access step). A delete and a re-insert of one key
	// route to one partition, so they apply in VID order on one
	// goroutine, and every index has a single writer.
	type part struct {
		ti, pi int
		w      uint64
	}
	var parts []part
	for _, ti := range touched {
		t := r.order[ti]
		w := t.wantedSyn.Load()
		for pi, p := range t.Partitions {
			if t.scratch.routed(pi) > 0 || p.needsMaintenance(w) {
				parts = append(parts, part{ti, pi, w})
			}
		}
	}
	res := make([]partOut, len(parts))
	r.pool.ForEach(len(parts), func(_, i int) {
		t, pi, o := r.order[parts[i].ti], parts[i].pi, &res[i]
		p := t.Partitions[pi]
		start := time.Now()
		entries := t.scratch.partEntries(pi)
		t0 := time.Now()
		o.step2 = t0.Sub(start)
		// Activate the synopsis columns the last query batches requested
		// before new entries land — the incremental maintenance below
		// then covers exactly the active set.
		p.ActivateSynopsisCols(parts[i].w)
		o.ins, o.upd, o.del, o.err = applyToPartition(p, entries)
		if o.err == nil {
			// Re-summarize blocks this round's deletes and bound-narrowing
			// updates dirtied, inside the same task (and the same Step3
			// timing) — queries never see a dirty block.
			p.ResummarizeDirty()
		}
		o.step3 = time.Since(t0)
	})
	for i, pt := range parts {
		o, po := outs[pt.ti], &res[i]
		o.ts.Step2 += po.step2
		o.ts.Step3 += po.step3
		o.ts.Inserted += po.ins
		o.ts.Updated += po.upd
		o.ts.Deleted += po.del
		if po.err != nil && o.err == nil {
			o.err = po.err
		}
	}

	// Fold per-table outcomes in registration order so stats and the
	// reported error are deterministic regardless of completion order.
	var firstErr error
	for _, ti := range touched {
		t, o := r.order[ti], outs[ti]
		st.PerTable[t.Schema.ID] = &o.ts
		st.Entries += o.entries
		st.Step1 += o.ts.Step1
		st.Step2 += o.ts.Step2
		st.Step3 += o.ts.Step3
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
// inactive synopsis columns (w is the table's request mask): work an
// apply round must pick up even with no entries for it.
func (p *Partition) needsMaintenance(w uint64) bool {
	return p.zm != nil && w != 0 && p.zm.active&w != w
}

func (t *Table) needsMaintenance() bool {
	w := t.wantedSyn.Load()
	for _, p := range t.Partitions {
		if p.needsMaintenance(w) {
			return true
		}
	}
	return false
}

func (r *Replica) needsMaintenance() bool {
	for _, t := range r.order {
		if t.needsMaintenance() {
			return true
		}
	}
	return false
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

// workerStream is one worker's VID-ordered entry stream for one table.
type workerStream struct {
	worker  int
	entries []proplog.Entry
}

// mergeByVIDInto k-way merges per-worker VID-sorted streams into one
// VID-ordered stream of references (paper Fig. 4 step 1), appended to out
// (typically a reused buffer). It re-scans every stream head for each
// run — O(k) per run, branch-predictable and allocation-free for the
// handful of streams one primary's workers feed a table — and takes the
// whole run of equal-VID entries from the winning stream, so one
// transaction's updates stay contiguous; VID ties go to the earlier
// stream.
func mergeByVIDInto(out []*proplog.Entry, ws []workerStream) []*proplog.Entry {
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
		s := ws[best]
		for heads[best] < len(s.entries) && s.entries[heads[best]].VID == bestVID {
			out = append(out, &s.entries[heads[best]])
			heads[best]++
		}
	}
	return out
}

// applyToPartition executes step 3 for one partition: updates and
// deletes locate their tuple through the partition's key index; inserts
// take the next free slot. Consecutive field patches of the same tuple
// from the same transaction share a single index lookup and count as one
// updated tuple — the paper's Ptup counts tuples, not patches.
func applyToPartition(p *Partition, entries []*proplog.Entry) (ins, upd, del int, err error) {
	for i := 0; i < len(entries); i++ {
		e := entries[i]
		switch e.Kind {
		case proplog.Insert:
			if aerr := p.Insert(e.Key, e.Data); aerr != nil {
				return ins, upd, del, aerr
			}
			ins++
		case proplog.Update:
			slot, ok := p.Locate(e.Key)
			if !ok {
				return ins, upd, del, fmt.Errorf("olap: update of unknown key %d", e.Key)
			}
			if aerr := p.PatchSlot(slot, e.Offset, e.Data); aerr != nil {
				return ins, upd, del, aerr
			}
			for i+1 < len(entries) && entries[i+1].Kind == proplog.Update &&
				entries[i+1].Key == e.Key && entries[i+1].VID == e.VID {
				i++
				if aerr := p.PatchSlot(slot, entries[i].Offset, entries[i].Data); aerr != nil {
					return ins, upd, del, aerr
				}
			}
			upd++
		case proplog.Delete:
			if aerr := p.Delete(e.Key); aerr != nil {
				return ins, upd, del, aerr
			}
			del++
		default:
			return ins, upd, del, fmt.Errorf("olap: unknown update kind %d", e.Kind)
		}
	}
	return ins, upd, del, nil
}
