package olap

import (
	"math/rand"
	"sync"
	"testing"

	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

// size and each exist for the tests only: nothing in the engine counts
// or enumerates a PK index.
func (ix *flatIndex) size() int {
	n := 0
	for i := range ix.shards {
		n += ix.shards[i].n
	}
	return n
}

func (ix *flatIndex) each(fn func(key, loc uint64)) {
	for i := range ix.shards {
		for _, e := range ix.shards[i].ents {
			if e.loc != 0 {
				fn(e.key, e.loc)
			}
		}
	}
}

// checkPKIndex asserts ix holds exactly want: every key resolves to its
// locator, nothing else is stored, the counters agree, and every shard
// keeps its load bound and probe-run invariant (a key is reachable from
// its home slot without crossing an empty one).
func checkPKIndex(t *testing.T, stage string, ix *flatIndex, want map[uint64]uint64) {
	t.Helper()
	if n := ix.size(); n != len(want) {
		t.Fatalf("%s: index holds %d keys, oracle %d", stage, n, len(want))
	}
	for k, loc := range want {
		if got, ok := ix.get(k); !ok || got != loc {
			t.Fatalf("%s: get(%d) = %d,%v; oracle %d", stage, k, got, ok, loc)
		}
	}
	stored := 0
	ix.each(func(k, loc uint64) {
		stored++
		if want[k] != loc {
			t.Fatalf("%s: index stores %d -> %d, oracle has %d", stage, k, loc, want[k])
		}
	})
	if stored != len(want) {
		t.Fatalf("%s: %d entries stored, oracle %d", stage, stored, len(want))
	}
	for i := range ix.shards {
		if s := &ix.shards[i]; 2*s.n > len(s.ents) {
			t.Fatalf("%s: shard %d holds %d keys in %d slots", stage, i, s.n, len(s.ents))
		}
	}
}

// TestPKIndexMatchesOracle drives the flat index and a map through the
// same seeded random insert / overwrite / delete / re-insert sequence.
// Keys come from a small dense range and from TPC-C-shaped packed keys,
// so shards collide, grow from their minimum size and shift entries back
// on delete. Every hundredth step or so the whole index is checked
// against the map.
func TestPKIndexMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		randKey := func() uint64 {
			if rnd.Intn(2) == 0 {
				return uint64(rnd.Intn(3000)) // includes key 0
			}
			return (uint64(rnd.Intn(4))<<4|uint64(rnd.Intn(10)))<<32 | uint64(rnd.Intn(400))
		}
		ix := newFlatIndex(0) // minimum-sized shards: every one has to grow
		oracle := map[uint64]uint64{}
		checks := 0
		for step := 0; step < 40000; step++ {
			k := randKey()
			switch op := rnd.Intn(100); {
			case op < 55:
				loc := pkLoc(rnd.Intn(8), int32(rnd.Intn(1<<20)))
				ix.put(k, loc)
				oracle[k] = loc
			case op < 90:
				// Delete with the stored locator; a stale locator (the row
				// was re-inserted elsewhere) must leave the entry alone.
				if loc, ok := oracle[k]; ok && rnd.Intn(8) == 0 {
					ix.del(k, loc+1)
				} else {
					ix.del(k, loc)
					delete(oracle, k)
				}
			case op < 99:
				if got, ok := ix.get(k); ok != (oracle[k] != 0) || got != oracle[k] {
					t.Fatalf("seed %d step %d: get(%d) = %d,%v; oracle %d", seed, step, k, got, ok, oracle[k])
				}
			default:
				checkPKIndex(t, "mid-sequence", ix, oracle)
				checks++
			}
		}
		checkPKIndex(t, "final index", ix, oracle)
		if checks < 100 {
			t.Fatalf("seed %d: only %d mid-sequence checks — the case is vacuous", seed, checks)
		}
	}
}

// TestRidIndexMatchesOracle drives a partition — whose RowID index is the
// same flat table — and a map through one seeded random insert / patch /
// delete sequence, as apply step 3 does: RowIDs from a small range so
// that slots are recycled and index shards grow and shift back. Every
// hundredth step or so the partition must locate exactly the map's rows,
// at slots holding their values.
func TestRidIndexMatchesOracle(t *testing.T) {
	s := kvSchema()
	check := func(stage string, p *Partition, want map[uint64]int64) {
		t.Helper()
		if p.Live() != len(want) || p.index.size() != len(want) {
			t.Fatalf("%s: %d live rows, %d index entries, oracle %d", stage, p.Live(), p.index.size(), len(want))
		}
		for rid, v := range want {
			slot, ok := p.Locate(rid)
			if !ok || p.rowIDs[slot] != rid || s.GetInt64(p.Tuple(slot), 1) != v {
				t.Fatalf("%s: Locate(%d) = slot %d,%v; oracle v=%d", stage, rid, slot, ok, v)
			}
		}
		p.index.each(func(rid, loc uint64) {
			if _, ok := want[rid]; !ok || loc != ridLoc(int32(loc)) {
				t.Fatalf("%s: index stores %d -> %#x, which the oracle does not have", stage, rid, loc)
			}
		})
	}
	for seed := int64(1); seed <= 4; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		p := NewPartition(s, 0)
		oracle := map[uint64]int64{}
		checks := 0
		for step := 0; step < 30000; step++ {
			rid := uint64(1 + rnd.Intn(2500))
			_, live := oracle[rid]
			switch op := rnd.Intn(100); {
			case op < 45 && !live:
				v := int64(rnd.Intn(1000))
				if err := p.Insert(rid, tuple(s, int64(rid), v)); err != nil {
					t.Fatal(err)
				}
				oracle[rid] = v
			case op < 45:
				if err := p.Insert(rid, tuple(s, int64(rid), 0)); err == nil {
					t.Fatalf("seed %d step %d: duplicate insert of RowID %d accepted", seed, step, rid)
				}
			case op < 65 && live:
				v := int64(rnd.Intn(1000))
				if err := p.UpdateField(rid, uint32(s.Offset(1)), u64le(v)); err != nil {
					t.Fatal(err)
				}
				oracle[rid] = v
			case op < 99 && live:
				if err := p.Delete(rid); err != nil {
					t.Fatal(err)
				}
				delete(oracle, rid)
			case op < 99:
				if _, ok := p.Locate(rid); ok {
					t.Fatalf("seed %d step %d: RowID %d located, oracle has it deleted", seed, step, rid)
				}
			default:
				check("mid-sequence", p, oracle)
				checks++
			}
		}
		check("final partition", p, oracle)
		if checks < 100 {
			t.Fatalf("seed %d: only %d mid-sequence checks — the case is vacuous", seed, checks)
		}
	}
}

// TestPKIndexConcurrentPartitionWriters is apply step 3's access
// pattern under the race detector: one goroutine per partition inserts
// and deletes that partition's rows in one index — different partitions'
// keys share shards, so the writers meet on the shard locks, and shards
// grow under them.
func TestPKIndexConcurrentPartitionWriters(t *testing.T) {
	const parts, perPart = 8, 3000
	key := func(pi, i int) uint64 { return uint64(i)*parts + uint64(pi) }
	ix := newFlatIndex(parts * perPart / 4) // undersized: shards grow under the writers
	for pi := 0; pi < parts; pi++ {
		for i := 0; i < perPart; i += 2 {
			ix.put(key(pi, i), pkLoc(pi, int32(i)))
		}
	}

	var writers sync.WaitGroup
	for pi := 0; pi < parts; pi++ {
		writers.Add(1)
		go func(pi int) {
			defer writers.Done()
			for i := 0; i < perPart; i++ {
				if i%2 == 0 {
					ix.del(key(pi, i), pkLoc(pi, int32(i)))
				} else {
					ix.put(key(pi, i), pkLoc(pi, int32(i)))
				}
			}
		}(pi)
	}
	writers.Wait()

	want := map[uint64]uint64{}
	for pi := 0; pi < parts; pi++ {
		for i := 1; i < perPart; i += 2 {
			want[key(pi, i)] = pkLoc(pi, int32(i))
		}
	}
	checkPKIndex(t, "after the writers", ix, want)
}

// TestGetByPKMissAndReinsert covers the table-level contract: a key
// never inserted misses, a deleted key misses, and a key re-inserted
// under a new RowID — which routes to a different partition and slot —
// resolves to the new tuple, including through an apply round in which
// the delete and the re-insert run on different partitions' goroutines.
func TestGetByPKMissAndReinsert(t *testing.T) {
	r := NewReplica(4)
	s := kvSchema()
	tbl := r.CreateTable(s, col0Key(s), 64)
	for k := int64(1); k <= 50; k++ {
		if err := r.LoadTuple(1, uint64(k), tuple(s, k, k*10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := tbl.GetByPK(999); ok {
		t.Fatal("a key never inserted resolves")
	}
	// Key 7 moves from RowID 7 to a RowID in another partition, in one
	// round, the re-insert carrying the lower VID within its partition.
	moved := uint64(1000)
	for tbl.partitionOf(moved) == tbl.partitionOf(7) {
		moved++
	}
	buf := proplog.NewBuffer(0)
	buf.Add(1, mkEntry(5, proplog.Delete, 7, 0, nil))
	buf.Add(1, mkEntry(6, proplog.Insert, moved, 0, tuple(s, 7, 777)))
	buf.Add(1, mkEntry(7, proplog.Delete, 8, 0, nil))
	r.ApplyUpdates([]proplog.Batch{buf.Take()}, 7)
	if _, err := r.ApplyPending(7); err != nil {
		t.Fatal(err)
	}
	tup, ok := tbl.GetByPK(7)
	if !ok || s.GetInt64(tup, 1) != 777 {
		t.Fatalf("re-inserted key 7 = %v,%v; want v=777", tup, ok)
	}
	if _, ok := tbl.GetByPK(8); ok {
		t.Fatal("deleted key 8 still resolves")
	}
	if tup, ok := tbl.GetByPK(9); !ok || s.GetInt64(tup, 1) != 90 {
		t.Fatalf("untouched key 9 = %v,%v", tup, ok)
	}
}

func BenchmarkGetByPK(b *testing.B) {
	// The benchmark's order_line table: 120 000 rows in 8 partitions.
	const rows, parts = 120_000, 8
	r := NewReplica(parts)
	s := storage.NewSchema(1, "ol", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
		{Name: "pad", Type: storage.String, Size: 48},
	}, []int{0})
	tbl := r.CreateTable(s, col0Key(s), rows)
	keys := make([]uint64, rows)
	for i := range keys {
		// TPC-C's order-line packing: ((w<<4|d)<<32|o)<<4 | n.
		w, d, o, n := uint64(1+i%4), uint64(1+i/4%10), uint64(1+i/40%300), uint64(1+i/12000)
		keys[i] = ((w<<4|d)<<32|o)<<4 | n
		tup := s.NewTuple()
		s.PutInt64(tup, 0, int64(keys[i]))
		if err := r.LoadTuple(1, uint64(i+1), tup); err != nil {
			b.Fatal(err)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		tup, ok := tbl.GetByPK(keys[i%rows])
		if !ok {
			b.Fatal("miss")
		}
		sink += len(tup)
	}
	benchSink = sink
}

var benchSink int
