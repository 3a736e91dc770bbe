package olap

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

// The apply pipeline has one body and one per-round choice: mutate the
// canonical structures in place (nothing pinned) or build the next
// version on clones (a reader pinned). These tests pin the contract
// that the choice is invisible in the result: the same delta applied to
// two identically loaded replicas, one in each case, leaves them
// indistinguishable — and leaves the pinned reader's version untouched.

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

// newEqReplica builds a replica of ntables zone-mapped, compressed,
// PK-indexed tables with rows [1, loaded] each, synopses on v active.
// The row values depend only on (table, row), so two calls with equal
// arguments produce identical replicas.
func newEqReplica(t *testing.T, ntables, parts, workers, loaded int) *Replica {
	t.Helper()
	r := NewReplica(parts)
	r.SetApplyWorkers(workers)
	r.EnableZoneMaps(eqBlock)
	r.EnableCompression()
	for id := storage.TableID(1); int(id) <= ntables; id++ {
		s := eqSchema(id)
		tbl := r.CreateTable(s, loaded)
		tbl.SetPK(func(tup []byte) uint64 { return uint64(s.GetInt64(tup, 0)) }, loaded)
		for row := 1; row <= loaded; row++ {
			if err := r.LoadTuple(id, uint64(row), tuple(s, int64(row), int64((row*7+int(id))%100))); err != nil {
				t.Fatal(err)
			}
		}
		tbl.RequestSynopses(eqRanges[0])
	}
	r.ActivateSynopses()
	return r
}

// eqModel is the reference state a delta stream is generated against:
// per table, live RowID -> v, plus the keys of deleted rows.
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
// inserts of fresh RowIDs, patches of v and deletes of live rows —
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
	next := uint64(1 << 20) // fresh RowIDs, far above the loaded range
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
	// RowIDs (0 = tombstone) and the free list.
	Raw [][]byte
	// Live is "rowID:tuple" for every live tuple, sorted.
	Live []string
	// Rid is "rowID:partition/slot" for every RowID-index entry, sorted.
	Rid []string
	// PK is "pk:locator=tuple" for every PK-index entry, sorted: where
	// the index says the row is, and the bytes GetByPK hands a probe for
	// it ("miss" when the key does not resolve to a tuple carrying it).
	PK []string
	// Verdicts holds, per partition, block and eqRanges entry, the
	// zone-map verdict, the encoded filter's served flag and selection
	// (masked to live slots), and the encoded SUM(v)/COUNT answer.
	Verdicts []string
}

func captureTable(tv *Table) tableState {
	st := tableState{Version: tv.Version()}
	for pi, p := range tv.Partitions {
		var raw bytes.Buffer
		raw.Write(p.data)
		fmt.Fprint(&raw, p.rowIDs, p.free, p.live)
		st.Raw = append(st.Raw, raw.Bytes())
		p.Scan(func(rowID uint64, tup []byte) bool {
			st.Live = append(st.Live, fmt.Sprintf("%d:%x", rowID, tup))
			return true
		})
		p.index.each(func(rowID, loc uint64) {
			st.Rid = append(st.Rid, fmt.Sprintf("%d:%d/%d", rowID, pi, int32(loc)))
		})
		for lo := 0; lo < p.Slots(); lo += eqBlock {
			hi := lo + eqBlock
			if hi > p.Slots() {
				hi = p.Slots()
			}
			var liveMask uint64
			for i := lo; i < hi; i++ {
				if p.rowIDs[i] != 0 {
					liveMask |= 1 << uint(i-lo)
				}
			}
			for ri, rg := range eqRanges {
				var sel [1]uint64
				served := p.FilterRange(lo, hi, rg, sel[:])
				if !served {
					sel[0] = 0
				}
				st.Verdicts = append(st.Verdicts, fmt.Sprintf("p%d[%d,%d) r%d: may=%v served=%v sel=%x",
					pi, lo, hi, ri, p.RangeMayMatch(lo, hi, rg), served, sel[0]&liveMask))
			}
			sum, rows, ok := p.SumLiveRange(lo, hi, 1)
			if !ok {
				sum, rows = 0, 0
			}
			st.Verdicts = append(st.Verdicts, fmt.Sprintf("p%d[%d,%d) sum=%v rows=%d ok=%v", pi, lo, hi, sum, rows, ok))
		}
	}
	sort.Strings(st.Live)
	sort.Strings(st.Rid)
	if tv.pkIdx != nil {
		tv.pkIdx.each(func(pk, loc uint64) {
			tup, ok := tv.GetByPK(pk)
			if !ok || tv.pkFn(tup) != pk {
				tup = []byte("miss")
			}
			st.PK = append(st.PK, fmt.Sprintf("%d:%x=%x", pk, loc, tup))
		})
		sort.Strings(st.PK)
	}
	return st
}

func captureTables(tables []*Table) []tableState {
	out := make([]tableState, len(tables))
	for i, tv := range tables {
		out[i] = captureTable(tv)
	}
	return out
}

// samePartitions reports whether two partition slices hold the very same
// objects (pointer identity — reflect.DeepEqual would follow the
// pointers and accept equal copies).
func samePartitions(a, b []*Partition) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
// that the PK index resolves exactly those keys.
func checkModel(t *testing.T, stage string, r *Replica, m *eqModel) {
	t.Helper()
	for ti, tbl := range r.Tables() {
		s := tbl.Schema
		if tbl.Live() != len(m.live[ti]) {
			t.Fatalf("%s: table %d live = %d, model %d", stage, ti+1, tbl.Live(), len(m.live[ti]))
		}
		if tbl.pkIdx.size() != len(m.live[ti]) {
			t.Fatalf("%s: table %d PK index holds %d keys, model %d", stage, ti+1, tbl.pkIdx.size(), len(m.live[ti]))
		}
		for row, v := range m.live[ti] {
			tup, ok := tbl.GetByPK(row)
			if !ok || s.GetInt64(tup, 1) != v {
				t.Fatalf("%s: table %d row %d = %v,%v; model v=%d", stage, ti+1, row, tup, ok, v)
			}
		}
		for row := range m.deleted[ti] {
			if _, ok := tbl.GetByPK(row); ok {
				t.Fatalf("%s: table %d deleted row %d still resolves through the PK index", stage, ti+1, row)
			}
		}
	}
}

// statCounts strips the timings from an ApplyStats.
func statCounts(st ApplyStats) string {
	var ids []int
	for id := range st.PerTable {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	s := fmt.Sprintf("target=%d entries=%d reloaded=%v", st.Target, st.Entries, st.Reloaded)
	for _, id := range ids {
		ts := st.PerTable[storage.TableID(id)]
		s += fmt.Sprintf(" t%d(+%d ~%d -%d)", id, ts.Inserted, ts.Updated, ts.Deleted)
	}
	return s
}

func pendingVIDs(r *Replica) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s []string
	for _, b := range r.pending {
		for _, tb := range b.Tables {
			for _, e := range tb.Entries {
				s = append(s, fmt.Sprintf("w%d/t%d/%d", b.Worker, tb.Table, e.VID))
			}
		}
	}
	sort.Strings(s)
	return fmt.Sprint(s)
}

func TestApplyInPlaceEqualsClone(t *testing.T) {
	cases := []struct {
		name                    string
		tables, parts, applyWrk int
		loaded, workers         int
		perTable                []int
		// cuts are the rounds' targets as fractions of the stream's last
		// VID; a cut below 1 leaves entries beyond target to be requeued.
		cuts    []float64
		sharded bool // the round must take the sharded step-2 router
	}{
		{name: "mixed", tables: 2, parts: 4, applyWrk: 2, loaded: 500, workers: 3,
			perTable: []int{400, 300}, cuts: []float64{1}},
		{name: "one-partition-serial", tables: 1, parts: 1, applyWrk: 1, loaded: 200, workers: 2,
			perTable: []int{150}, cuts: []float64{1}},
		{name: "sharded-router", tables: 2, parts: 4, applyWrk: 4, loaded: 4000, workers: 4,
			perTable: []int{2*routeShardMin + 500, 200}, cuts: []float64{1}, sharded: true},
		{name: "requeue-beyond-target", tables: 2, parts: 3, applyWrk: 2, loaded: 300, workers: 2,
			perTable: []int{300, 300}, cuts: []float64{0.4, 1}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inPlace := newEqReplica(t, tc.tables, tc.parts, tc.applyWrk, tc.loaded)
			cloned := newEqReplica(t, tc.tables, tc.parts, tc.applyWrk, tc.loaded)
			if d := diffStates(captureTables(inPlace.Tables()), captureTables(cloned.Tables())); d != "" {
				t.Fatalf("replicas differ before any apply: %s", d)
			}

			// One stream, generated once, fed to both. The model tracks the
			// end state; intermediate cuts are checked replica-vs-replica
			// only.
			m := newEqModel(tc.tables, tc.loaded)
			batches, last := genDelta(rand.New(rand.NewSource(int64(1000+ci))), m, tc.workers, tc.perTable, 10)
			inPlace.ApplyUpdates(batches, last)
			cloned.ApplyUpdates(batches, last)

			for ri, cut := range tc.cuts {
				target := last
				if cut < 1 {
					target = 10 + uint64(cut*float64(last-10))
				}
				stage := fmt.Sprintf("round %d (target %d)", ri, target)

				// Clone case: a snapshot stays pinned across the whole round.
				pin := cloned.PinSnapshot()
				pinnedBefore := captureTables(pin.Tables())
				retiredBefore := cloned.RetiredSnapshots()
				canonBefore := append([]*Partition(nil), inPlace.Table(1).Partitions...)

				stIn, err := inPlace.ApplyPending(target)
				if err != nil {
					t.Fatalf("%s: in-place apply: %v", stage, err)
				}
				stCl, err := cloned.ApplyPending(target)
				if err != nil {
					t.Fatalf("%s: clone apply: %v", stage, err)
				}

				// The two cases really were taken: the unpinned replica kept
				// its partition objects, the pinned one swapped in copies and
				// left the pinned version its own.
				if !samePartitions(canonBefore, inPlace.Table(1).Partitions) {
					t.Fatalf("%s: unpinned round replaced partitions — it did not apply in place", stage)
				}
				if samePartitions(cloned.Table(1).Partitions, pin.Table(1).Partitions) {
					t.Fatalf("%s: pinned round shares every partition with the pinned version — it did not clone", stage)
				}
				if tc.sharded {
					for _, r := range []*Replica{inPlace, cloned} {
						if len(r.Table(1).scratch.router) < 2 {
							t.Fatalf("%s: step 2 did not shard its routing (router buffers: %d)", stage, len(r.Table(1).scratch.router))
						}
					}
				}

				if a, b := statCounts(stIn), statCounts(stCl); a != b {
					t.Fatalf("%s: ApplyStats differ:\n in place: %s\n clone:    %s", stage, a, b)
				}
				if d := diffStates(captureTables(inPlace.Tables()), captureTables(cloned.Tables())); d != "" {
					t.Fatalf("%s: in-place and clone results differ: %s", stage, d)
				}
				if a, b := inPlace.AppliedVID(), cloned.AppliedVID(); a != target || b != target {
					t.Fatalf("%s: applied VIDs %d / %d", stage, a, b)
				}
				if a, b := pendingVIDs(inPlace), pendingVIDs(cloned); a != b {
					t.Fatalf("%s: requeued entries differ:\n in place: %s\n clone:    %s", stage, a, b)
				} else if cut < 1 && a == "[]" {
					t.Fatalf("%s: nothing was requeued beyond the target — the case is vacuous", stage)
				}
				// Both new heads show what the canonical tables show.
				for _, r := range []*Replica{inPlace, cloned} {
					head := r.PinSnapshot()
					if d := diffStates(captureTables(head.Tables()), captureTables(r.Tables())); d != "" || head.VID() != target {
						t.Fatalf("%s: installed head (VID %d) differs from canonical tables: %s", stage, head.VID(), d)
					}
					head.Unpin()
				}

				// The pinned reader's version is byte-for-byte what it was,
				// and is retired the moment it unpins.
				if d := diffStates(pinnedBefore, captureTables(pin.Tables())); d != "" {
					t.Fatalf("%s: the pinned snapshot changed under its reader: %s", stage, d)
				}
				if n := cloned.SnapshotChainLen(); n != 2 {
					t.Fatalf("%s: chain length %d with one old version pinned, want 2", stage, n)
				}
				pin.Unpin()
				if n, ret := cloned.SnapshotChainLen(), cloned.RetiredSnapshots(); n != 1 || ret != retiredBefore+1 {
					t.Fatalf("%s: after Unpin chain length %d, retired %d -> %d; want 1 and one more", stage, n, retiredBefore, ret)
				}
			}
			// A resync reload replaces every structure, PK index included,
			// with freshly built ones — on both twins alike, but under a
			// pin on one of them: the pinned version keeps resolving every
			// key to its pre-reload bytes.
			pin := cloned.PinSnapshot()
			pinnedBefore := captureTables(pin.Tables())
			for _, r := range []*Replica{inPlace, cloned} {
				rl := r.NewReload()
				for ti := range m.live {
					id := storage.TableID(ti + 1)
					rows := make([]uint64, 0, len(m.live[ti]))
					for row := range m.live[ti] {
						rows = append(rows, row)
					}
					slices.Sort(rows) // slot placement follows load order
					for _, row := range rows {
						if row%3 == 0 {
							continue // the resync snapshot lost this row
						}
						if err := rl.LoadTuple(id, row, tuple(eqSchema(id), int64(row), (m.live[ti][row]+1)%100)); err != nil {
							t.Fatal(err)
						}
					}
				}
				r.InstallReload(rl, last+1)
				if st, err := r.ApplyPending(last + 1); err != nil || !st.Reloaded {
					t.Fatalf("resync reload: reloaded=%v err=%v", st.Reloaded, err)
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
			if d := diffStates(captureTables(inPlace.Tables()), captureTables(cloned.Tables())); d != "" {
				t.Fatalf("after resync reload the twins differ: %s", d)
			}
			if d := diffStates(pinnedBefore, captureTables(pin.Tables())); d != "" {
				t.Fatalf("the resync reload changed the pinned snapshot under its reader: %s", d)
			}
			pin.Unpin()

			// The comparison above is only as strong as what the captures
			// exercise: the encoded filter and aggregate kernels must have
			// served blocks, and the zone maps must have disproved some.
			var served, summed, disproved int
			for _, st := range captureTables(cloned.Tables()) {
				for _, v := range st.Verdicts {
					served += strings.Count(v, "served=true")
					summed += strings.Count(v, "ok=true")
					disproved += strings.Count(v, "may=false")
				}
			}
			if served == 0 || summed == 0 || disproved == 0 {
				t.Fatalf("vacuous capture: %d blocks filter-served, %d sum-served, %d disproved", served, summed, disproved)
			}
			checkModel(t, "in place", inPlace, m)
			checkModel(t, "clone", cloned, m)
		})
	}
}

// checkEncodedExact asserts the contract a deferred re-encode leans on:
// for every block and eqRanges entry of every table, the encoded filter
// either refuses the block (the scan then reads its rows) or selects
// exactly the live slots whose v satisfies the range, never from a stale
// vector, and the encoded sum either refuses or equals the sum over the
// block's rows. It returns how many (block, range) pairs were served and
// how many refused.
func checkEncodedExact(t *testing.T, stage string, r *Replica) (served, refused int) {
	t.Helper()
	for _, tbl := range r.Tables() {
		s := tbl.Schema
		for pi, p := range tbl.Partitions {
			for lo := 0; lo < p.Slots(); lo += eqBlock {
				hi := min(lo+eqBlock, p.Slots())
				var sum float64
				live := 0
				for i := lo; i < hi; i++ {
					if p.rowIDs[i] != 0 {
						live++
						sum += float64(s.GetInt64(p.Tuple(int32(i)), 1))
					}
				}
				for ri, rg := range eqRanges {
					var want, sel [1]uint64
					for i := lo; i < hi; i++ {
						if v := s.GetInt64(p.Tuple(int32(i)), 1); p.rowIDs[i] != 0 && v >= rg[0].Lo && v <= rg[0].Hi {
							want[0] |= 1 << uint(i-lo)
						}
					}
					if !p.FilterRange(lo, hi, rg, sel[:]) {
						refused++
						continue
					}
					if ci := p.zm.colPos[rg[0].Col]; p.enc.stale[lo/eqBlock]&(1<<uint(ci)) != 0 {
						t.Fatalf("%s: table %s p%d[%d,%d) range %d: served from a stale vector", stage, s.Name, pi, lo, hi, ri)
					}
					served++
					for i := lo; i < hi; i++ {
						if p.rowIDs[i] == 0 {
							sel[0] &^= 1 << uint(i-lo) // a dead slot's verdict is a don't-care
						}
					}
					if sel != want {
						t.Fatalf("%s: table %s p%d[%d,%d) range %d: encoded filter selects %064b, rows say %064b", stage, s.Name, pi, lo, hi, ri, sel[0], want[0])
					}
				}
				if got, rows, ok := p.SumLiveRange(lo, hi, 1); ok && (got != sum || int(rows) != live) {
					t.Fatalf("%s: table %s p%d[%d,%d): encoded sum %v over %d rows, rows say %v over %d", stage, s.Name, pi, lo, hi, got, rows, sum, live)
				}
			}
		}
	}
	return served, refused
}

// TestApplySplitEqualsOneRound pins that cutting a delta into rounds is
// invisible in the result, which is what lets the scheduler apply a
// cycle's updates in the gap between two batches a piece at a time: the
// same seeded delta applied as one round, and as two to six rounds at
// seeded random VID cuts with the re-encode deferred to the last, leaves
// identical slot storage, RowID and PK indexes, zone-map verdicts and
// encoded-kernel answers. Between the rounds of the split twin — where a
// batch would read blocks whose vectors are stale — the encoded kernels
// refuse exactly the stale block-columns and are exact on the rest.
func TestApplySplitEqualsOneRound(t *testing.T) {
	// Table 1 takes few enough entries for its rows that the last round
	// replays the blocks' patch journals; table 2's overflow.
	const tables, parts, loaded, workers = 2, 4, 6000, 3
	served, refused := 0, 0 // between the rounds, over all seeds
	for seed := int64(1); seed <= 6; seed++ {
		rnd := rand.New(rand.NewSource(2900 + seed))
		whole := newEqReplica(t, tables, parts, 2, loaded)
		split := newEqReplica(t, tables, parts, 2, loaded)
		m := newEqModel(tables, loaded)
		batches, last := genDelta(rnd, m, workers, []int{300, 2400}, 10)
		whole.ApplyUpdates(batches, last)
		split.ApplyUpdates(batches, last)

		if _, err := whole.ApplyPending(last); err != nil {
			t.Fatal(err)
		}
		rounds := 2 + rnd.Intn(5)
		cuts := make([]uint64, rounds)
		for i := range cuts[:rounds-1] {
			cuts[i] = 11 + uint64(rnd.Int63n(int64(last-11)))
		}
		cuts[rounds-1] = last
		slices.Sort(cuts)
		for i, target := range cuts {
			if _, err := split.applyPending(target, i == rounds-1); err != nil {
				t.Fatalf("seed %d round %d (target %d): %v", seed, i, target, err)
			}
			s, n := checkEncodedExact(t, fmt.Sprintf("seed %d after round %d of %d", seed, i+1, rounds), split)
			if i < rounds-1 {
				served, refused = served+s, refused+n
			}
		}

		a, b := captureTables(whole.Tables()), captureTables(split.Tables())
		for i := range a {
			a[i].Version, b[i].Version = 0, 0 // one bump per round that had entries
		}
		if d := diffStates(a, b); d != "" {
			t.Fatalf("seed %d: %d rounds differ from one: %s", seed, rounds, d)
		}
		if n, _ := checkEncodedExact(t, "one round", whole); n == 0 {
			t.Fatalf("seed %d: vacuous: the encoded filter served no block", seed)
		}
		checkModel(t, "one round", whole, m)
		checkModel(t, "split", split, m)
	}
	if served == 0 || refused == 0 {
		t.Fatalf("between the rounds %d block-columns were served and %d refused — the case is vacuous", served, refused)
	}
}
