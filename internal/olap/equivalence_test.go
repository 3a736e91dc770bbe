package olap

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

// The apply pipeline has one body, and it writes the replica in place.
// These tests hold it to a model of the rows it should end up with and
// to itself: the same delta applied to two identically loaded replicas,
// in one round and in several, leaves them indistinguishable.

const eqBlock = 64 // zone-map block size of the test replicas

func eqSchema(id storage.TableID) *storage.Schema {
	return storage.NewSchema(id, fmt.Sprintf("eq%d", id), []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
	}, []int{0})
}

// eqRanges are the pushed-down predicates the fingerprints evaluate on
// column v (values are drawn from [0, 100)).
var eqRanges = [][]ColRange{
	{{Col: 1, Lo: 0, Hi: 9}},
	{{Col: 1, Lo: 40, Hi: 60}},
	{{Col: 1, Lo: 95, Hi: 1000}},
	{{Col: 1, Lo: 200, Hi: 300}}, // matches nothing: every block is disproved
}

// newEqReplica builds a replica of ntables zone-mapped, PK-indexed
// tables with rows [1, loaded] each, synopses on v active.
// The row values depend only on (table, row), so two calls with equal
// arguments produce identical replicas.
func newEqReplica(t *testing.T, ntables, parts, workers, loaded int) *Replica {
	t.Helper()
	return newEqReplicaOf(t, parts, workers, newEqModel(ntables, loaded))
}

// newEqReplicaOf builds a replica like newEqReplica's that holds exactly
// the model's live rows, loaded in key order into fresh structures.
func newEqReplicaOf(t *testing.T, parts, workers int, m *eqModel) *Replica {
	t.Helper()
	r := NewReplica(parts)
	r.SetApplyWorkers(workers)
	r.EnableZoneMaps(eqBlock)
	for ti, live := range m.live {
		id := storage.TableID(ti + 1)
		s := eqSchema(id)
		tbl := r.CreateTable(s, len(live))
		for _, row := range sortedRows(live) {
			if err := r.LoadTuple(id, row, tuple(s, int64(row), live[row])); err != nil {
				t.Fatal(err)
			}
		}
		tbl.RequestSynopses(eqRanges[0])
	}
	if _, err := r.ApplyPending(0); err != nil {
		t.Fatal(err)
	}
	return r
}

// sortedRows returns the keys of live in increasing order (slot
// placement follows load order).
func sortedRows(live map[uint64]int64) []uint64 {
	rows := make([]uint64, 0, len(live))
	for row := range live {
		rows = append(rows, row)
	}
	slices.Sort(rows)
	return rows
}

// eqModel is the reference state a delta stream is generated against:
// per table, live key -> v, plus the keys of deleted rows.
type eqModel struct {
	live    []map[uint64]int64
	deleted []map[uint64]bool
}

func newEqModel(ntables, loaded int) *eqModel {
	m := &eqModel{}
	for id := 1; id <= ntables; id++ {
		live := make(map[uint64]int64, loaded)
		for row := 1; row <= loaded; row++ {
			live[uint64(row)] = int64((row*7 + id) % 100)
		}
		m.live = append(m.live, live)
		m.deleted = append(m.deleted, map[uint64]bool{})
	}
	return m
}

// genDelta produces perTable[i] well-formed entries for table i+1 —
// inserts of fresh keys, patches of v and deletes of live rows —
// with globally increasing VIDs (one per entry, starting above
// firstVID) spread at random over the given number of workers, and
// advances the model to the stream's end state. It returns one batch
// per worker and the last VID.
func genDelta(rnd *rand.Rand, m *eqModel, workers int, perTable []int, firstVID uint64) ([]proplog.Batch, uint64) {
	bufs := make([]*proplog.Buffer, workers)
	for w := range bufs {
		bufs[w] = proplog.NewBuffer(w)
	}
	type slot struct{ table, left int }
	var open []slot
	for i, n := range perTable {
		if n > 0 {
			open = append(open, slot{i, n})
		}
	}
	vid := firstVID
	// Fresh keys, far above the loaded range; a stream takes at most
	// one per VID, so streams with disjoint VIDs insert disjoint rows.
	next := uint64(1<<20) + firstVID
	for len(open) > 0 {
		oi := rnd.Intn(len(open))
		ti := open[oi].table
		if open[oi].left--; open[oi].left == 0 {
			open = append(open[:oi], open[oi+1:]...)
		}
		id := storage.TableID(ti + 1)
		s := eqSchema(id)
		live := m.live[ti]
		buf := bufs[rnd.Intn(workers)]
		vid++
		// Pick a live row for patches and deletes by probing the (dense)
		// loaded range; fall back to an insert when the probe misses.
		probe := uint64(1 + rnd.Intn(len(live)+1))
		_, hit := live[probe]
		switch op := rnd.Intn(10); {
		case hit && op < 5:
			v := int64(rnd.Intn(100))
			buf.Add(id, mkEntry(vid, proplog.Update, probe, uint32(s.Offset(1)), u64le(v)))
			live[probe] = v
		case hit && op < 7:
			buf.Add(id, mkEntry(vid, proplog.Delete, probe, 0, nil))
			delete(live, probe)
			m.deleted[ti][probe] = true
		default:
			next++
			v := int64(rnd.Intn(100))
			buf.Add(id, mkEntry(vid, proplog.Insert, next, 0, tuple(s, int64(next), v)))
			live[next] = v
		}
	}
	var batches []proplog.Batch
	for _, b := range bufs {
		if b.Len() > 0 {
			batches = append(batches, b.Take())
		}
	}
	return batches, vid
}

// tableState is everything observable about one version of one table.
type tableState struct {
	Version uint64
	// Raw is each partition's slot storage verbatim: tuple bytes, slot
	// live flags and the free list.
	Raw [][]byte
	// Live is "partition/slot:tuple" for every live tuple, sorted.
	Live []string
	// Index is "key:partition/slot=tuple" for every entry of the
	// partitions' indexes, sorted: where the index says the row is, and
	// the bytes GetByPK hands a probe for it ("miss" when the key does not
	// resolve to a tuple carrying it).
	Index []string
	// Verdicts holds, per partition, block and eqRanges entry, the
	// zone-map verdict.
	Verdicts []string
}

func captureTable(tv *Table) tableState {
	st := tableState{Version: tv.Version()}
	for pi, p := range tv.Partitions {
		var raw bytes.Buffer
		raw.Write(p.data)
		fmt.Fprint(&raw, p.alive, p.free, p.live)
		st.Raw = append(st.Raw, raw.Bytes())
		for _, slot := range liveSlots(p) {
			st.Live = append(st.Live, fmt.Sprintf("%d/%d:%x", pi, slot, p.Tuple(slot)))
		}
		p.index.each(func(key uint64, slot int32) {
			tup, ok := tv.GetByPK(key)
			if !ok || tv.Schema.GetInt64(tup, 0) != int64(key) {
				tup = []byte("miss")
			}
			st.Index = append(st.Index, fmt.Sprintf("%d:%d/%d=%x", key, pi, slot, tup))
		})
		for lo := 0; lo < p.Slots(); lo += eqBlock {
			hi := min(lo+eqBlock, p.Slots())
			for ri, rg := range eqRanges {
				st.Verdicts = append(st.Verdicts, fmt.Sprintf("p%d[%d,%d) r%d: may=%v",
					pi, lo, hi, ri, p.RangeMayMatch(lo, hi, rg)))
			}
		}
	}
	sort.Strings(st.Live)
	sort.Strings(st.Index)
	return st
}

func captureTables(tables []*Table) []tableState {
	out := make([]tableState, len(tables))
	for i, tv := range tables {
		out[i] = captureTable(tv)
	}
	return out
}

// diffStates names the first field two captures differ in ("" if none).
func diffStates(a, b []tableState) string {
	for i := range a {
		av, bv := reflect.ValueOf(a[i]), reflect.ValueOf(b[i])
		for f := 0; f < av.NumField(); f++ {
			if !reflect.DeepEqual(av.Field(f).Interface(), bv.Field(f).Interface()) {
				return fmt.Sprintf("table %d field %s", i+1, av.Type().Field(f).Name)
			}
		}
	}
	return ""
}

// checkModel asserts the replica holds exactly the model's live rows and
// that the partitions' indexes resolve exactly those keys.
func checkModel(t *testing.T, stage string, r *Replica, m *eqModel) {
	t.Helper()
	for ti, tbl := range r.Tables() {
		s := tbl.Schema
		if tbl.Live() != len(m.live[ti]) {
			t.Fatalf("%s: table %d live = %d, model %d", stage, ti+1, tbl.Live(), len(m.live[ti]))
		}
		indexed := 0
		for _, p := range tbl.Partitions {
			indexed += p.index.size()
		}
		if indexed != len(m.live[ti]) {
			t.Fatalf("%s: table %d indexes hold %d keys, model %d", stage, ti+1, indexed, len(m.live[ti]))
		}
		for row, v := range m.live[ti] {
			tup, ok := tbl.GetByPK(row)
			if !ok || s.GetInt64(tup, 1) != v {
				t.Fatalf("%s: table %d row %d = %v,%v; model v=%d", stage, ti+1, row, tup, ok, v)
			}
		}
		for row := range m.deleted[ti] {
			if _, ok := tbl.GetByPK(row); ok {
				t.Fatalf("%s: table %d deleted row %d still resolves through its index", stage, ti+1, row)
			}
		}
	}
}

// pendingEntries counts the entries queued for the next round.
func pendingEntries(r *Replica) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := range r.pending {
		for _, tb := range r.pending[i].Tables {
			n += len(tb.Entries)
		}
	}
	return n
}

// applyCases are the replica and delta shapes the apply equivalence tests
// run: perTable entries per table over rows [1, loaded] of each.
var applyCases = []struct {
	name                    string
	tables, parts, applyWrk int
	loaded, workers         int
	perTable                []int
	seeds                   int  // of the split test
	sharded                 bool // a round must take the sharded step-2 router
}{
	// Table 1 takes few entries for its rows, table 2 many.
	{name: "journal-and-overflow", tables: 2, parts: 4, applyWrk: 2, loaded: 6000, workers: 3,
		perTable: []int{300, 2400}, seeds: 6},
	{name: "mixed", tables: 2, parts: 4, applyWrk: 2, loaded: 500, workers: 3,
		perTable: []int{400, 300}, seeds: 2},
	{name: "one-partition-serial", tables: 1, parts: 1, applyWrk: 1, loaded: 200, workers: 2,
		perTable: []int{150}, seeds: 2},
	{name: "sharded-router", tables: 2, parts: 4, applyWrk: 4, loaded: 4000, workers: 4,
		perTable: []int{2*routeShardMin + 500, 200}, seeds: 1, sharded: true},
	// More entries than loaded rows, in three partitions: most cuts
	// requeue a tail that both tables' later rounds take.
	{name: "requeue-beyond-target", tables: 2, parts: 3, applyWrk: 2, loaded: 300, workers: 2,
		perTable: []int{300, 300}, seeds: 2},
}

// TestApplyInPlaceEqualsClone pins that rounds written in place leave a
// replica no reader can tell from a clone of the same rows built from
// scratch, although its slots carry tombstones, reused free slots and
// patched blocks the clone's do not. Two deltas are queued; the first
// round stops at the first one's last VID and requeues the second, and
// the second round takes the rest. After each round the in-place replica
// and a replica freshly loaded with the model's rows hold the same live
// rows, resolve every primary key to the same bytes, and answer every
// pushed-down range alike through zone maps.
func TestApplyInPlaceEqualsClone(t *testing.T) {
	for ci, tc := range applyCases {
		t.Run(tc.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(1000 + ci)))
			r := newEqReplica(t, tc.tables, tc.parts, tc.applyWrk, tc.loaded)
			m := newEqModel(tc.tables, tc.loaded)
			first, mid := genDelta(rnd, m, tc.workers, tc.perTable, 10)
			midClone := newEqReplicaOf(t, tc.parts, tc.applyWrk, m)
			second, last := genDelta(rnd, m, tc.workers, tc.perTable, mid)
			endClone := newEqReplicaOf(t, tc.parts, tc.applyWrk, m)
			r.ApplyUpdates(first, mid)
			r.ApplyUpdates(second, last)

			var disproved int
			for _, round := range []struct {
				target uint64
				clone  *Replica
			}{{mid, midClone}, {last, endClone}} {
				stage := fmt.Sprintf("round to %d of %d", round.target, last)
				if _, err := r.ApplyPending(round.target); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				if n := pendingEntries(r); uint64(n) != last-round.target {
					t.Fatalf("%s: %d entries requeued, want %d", stage, n, last-round.target)
				}
				if tc.sharded && len(r.Table(1).scratch.router) < 2 {
					t.Fatalf("%s: step 2 did not shard its routing (router buffers: %d)", stage, len(r.Table(1).scratch.router))
				}
				got, d := readerView(r)
				want, _ := readerView(round.clone)
				if !reflect.DeepEqual(got, want) {
					for i := range got {
						if i >= len(want) || got[i] != want[i] {
							t.Fatalf("%s: in place and clone differ at %q", stage, got[i])
						}
					}
					t.Fatalf("%s: the clone shows %d more lines", stage, len(want)-len(got))
				}
				disproved += d
			}
			if disproved == 0 {
				t.Fatal("vacuous: the zone map disproved no block in place")
			}
			checkModel(t, "in place", r, m)
			checkModel(t, "clone", endClone, m)
		})
	}
}

// readerView is what a reader can observe of a replica's tables, slot
// placement aside: the live rows, what every primary key resolves to,
// and, per eqRanges entry, the count and sum of v over the matching rows
// as a scan computes them — skipping blocks the zone map disproves. It
// also counts the blocks the zone map disproved.
func readerView(r *Replica) (view []string, disproved int) {
	for _, tv := range r.Tables() {
		s := tv.Schema
		var rows []string
		for _, p := range tv.Partitions {
			for _, slot := range liveSlots(p) {
				rows = append(rows, fmt.Sprintf("%s row %x", s.Name, p.Tuple(slot)))
			}
			p.index.each(func(key uint64, _ int32) {
				tup, _ := tv.GetByPK(key)
				rows = append(rows, fmt.Sprintf("%s pk %d=%x", s.Name, key, tup))
			})
		}
		sort.Strings(rows)
		view = append(view, rows...)
		counts := make([]int, len(eqRanges))
		sums := make([]int64, len(eqRanges))
		for _, p := range tv.Partitions {
			for lo := 0; lo < p.Slots(); lo += eqBlock {
				hi := min(lo+eqBlock, p.Slots())
				for ri, rg := range eqRanges {
					if !p.RangeMayMatch(lo, hi, rg) {
						disproved++
						continue
					}
					for i := lo; i < hi; i++ {
						if !p.alive[i] {
							continue
						}
						if v := s.GetInt64(p.Tuple(int32(i)), 1); v >= rg[0].Lo && v <= rg[0].Hi {
							counts[ri]++
							sums[ri] += v
						}
					}
				}
			}
		}
		for ri := range eqRanges {
			view = append(view, fmt.Sprintf("%s range %d: count=%d sum=%d", s.Name, ri, counts[ri], sums[ri]))
		}
	}
	return view, disproved
}

// TestApplySplitEqualsOneRound pins that cutting a delta into rounds is
// invisible in the result, which is what lets the scheduler apply a
// cycle's updates a piece at a time, in push rounds and a barrier round: the
// same seeded delta applied as one round, and as two to six rounds at
// seeded random VID cuts, leaves identical slot storage, key indexes
// and zone-map verdicts, and both hold exactly the model's rows.
// Every cut below the last VID requeues exactly the entries above it. A
// resync reload then replaces both twins' contents alike.
func TestApplySplitEqualsOneRound(t *testing.T) {
	for ci, tc := range applyCases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(tc.seeds); seed++ {
				applySplitCase(t, seed+int64(100*ci), tc.tables, tc.parts, tc.applyWrk, tc.loaded, tc.workers,
					tc.perTable, tc.sharded)
			}
		})
	}
}

func applySplitCase(t *testing.T, seed int64, tables, parts, applyWrk, loaded, workers int, perTable []int, sharded bool) {
	rnd := rand.New(rand.NewSource(2900 + seed))
	whole := newEqReplica(t, tables, parts, applyWrk, loaded)
	split := newEqReplica(t, tables, parts, applyWrk, loaded)
	m := newEqModel(tables, loaded)
	batches, last := genDelta(rnd, m, workers, perTable, 10)
	whole.ApplyUpdates(batches, last)
	split.ApplyUpdates(batches, last)

	if _, err := whole.ApplyPending(last); err != nil {
		t.Fatal(err)
	}
	if sharded && len(whole.Table(1).scratch.router) < 2 {
		t.Fatalf("seed %d: step 2 did not shard its routing (router buffers: %d)", seed, len(whole.Table(1).scratch.router))
	}
	rounds := 2 + rnd.Intn(5)
	cuts := make([]uint64, rounds)
	for i := range cuts[:rounds-1] {
		cuts[i] = 11 + uint64(rnd.Int63n(int64(last-11)))
	}
	cuts[rounds-1] = last
	slices.Sort(cuts)
	for i, target := range cuts {
		if _, err := split.ApplyPending(target); err != nil {
			t.Fatalf("seed %d round %d (target %d): %v", seed, i, target, err)
		}
		// genDelta gives every VID in (10, last] one entry.
		if n := pendingEntries(split); uint64(n) != last-target {
			t.Fatalf("seed %d round %d (target %d): %d entries requeued, want %d", seed, i, target, n, last-target)
		}
	}
	compareTwins(t, fmt.Sprintf("seed %d: %d rounds vs one", seed, rounds), whole, split)
	checkModel(t, "one round", whole, m)
	checkModel(t, "split", split, m)

	// A resync reload replaces every structure, indexes included, with
	// freshly built ones, and the floor rises to its VID.
	for _, r := range []*Replica{whole, split} {
		rl := r.NewReload()
		for ti := range m.live {
			id := storage.TableID(ti + 1)
			for _, row := range sortedRows(m.live[ti]) {
				if row%3 == 0 {
					continue // the resync snapshot lost this row
				}
				if err := rl.LoadTuple(id, row, tuple(eqSchema(id), int64(row), (m.live[ti][row]+1)%100)); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.InstallReload(rl, last+1)
		if st, err := r.ApplyPending(last + 1); err != nil || !st.Reloaded || r.AppliedVID() != last+1 {
			t.Fatalf("resync reload: reloaded=%v applied=%d err=%v", st.Reloaded, r.AppliedVID(), err)
		}
	}
	for ti := range m.live {
		for row, v := range m.live[ti] {
			if row%3 == 0 {
				delete(m.live[ti], row)
				m.deleted[ti][row] = true
			} else {
				m.live[ti][row] = (v + 1) % 100
			}
		}
	}
	compareTwins(t, fmt.Sprintf("seed %d: after the resync reload", seed), whole, split)
	checkModel(t, "reloaded one round", whole, m)
	checkModel(t, "reloaded split", split, m)
}

// compareTwins fails unless two replicas are indistinguishable but for
// their table versions (one bump per round that had entries).
func compareTwins(t *testing.T, stage string, a, b *Replica) {
	t.Helper()
	sa, sb := captureTables(a.Tables()), captureTables(b.Tables())
	for i := range sa {
		sa[i].Version, sb[i].Version = 0, 0
	}
	if d := diffStates(sa, sb); d != "" {
		t.Fatalf("%s: the twins differ: %s", stage, d)
	}
}
