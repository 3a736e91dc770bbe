package olap

import (
	"math/rand"
	"testing"

	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

// size and each exist for the tests only: nothing in the engine counts
// or enumerates a partition's index.
func (ix *flatIndex) size() int {
	n := 0
	for i := range ix.shards {
		n += ix.shards[i].n
	}
	return n
}

func (ix *flatIndex) each(fn func(key uint64, slot int32)) {
	for i := range ix.shards {
		for _, e := range ix.shards[i].ents {
			if e.loc != 0 {
				fn(e.key, int32(e.loc-1))
			}
		}
	}
}

// checkPartitionIndex asserts that p's index holds exactly the oracle's
// keys: every key resolves to a live slot holding the oracle's value,
// nothing else is stored, the counters agree, and every shard keeps its
// load bound.
func checkPartitionIndex(t *testing.T, stage string, p *Partition, want map[uint64]int64) {
	t.Helper()
	s, ix := p.schema, p.index
	if p.Live() != len(want) || ix.size() != len(want) {
		t.Fatalf("%s: %d live rows, %d index entries, oracle %d", stage, p.Live(), ix.size(), len(want))
	}
	for k, v := range want {
		slot, ok := p.Locate(k)
		if !ok || !p.alive[slot] || s.GetInt64(p.Tuple(slot), 0) != int64(k) || s.GetInt64(p.Tuple(slot), 1) != v {
			t.Fatalf("%s: Locate(%d) = slot %d,%v; oracle v=%d", stage, k, slot, ok, v)
		}
	}
	stored := 0
	ix.each(func(k uint64, slot int32) {
		stored++
		if _, ok := want[k]; !ok || s.GetInt64(p.Tuple(slot), 0) != int64(k) {
			t.Fatalf("%s: index stores %d -> slot %d, which the oracle does not have", stage, k, slot)
		}
	})
	if stored != len(want) {
		t.Fatalf("%s: %d entries stored, oracle %d", stage, stored, len(want))
	}
	for i := range ix.shards {
		if sh := &ix.shards[i]; 2*sh.n > len(sh.ents) {
			t.Fatalf("%s: shard %d holds %d keys in %d slots", stage, i, sh.n, len(sh.ents))
		}
	}
}

// checkFlatIndex asserts ix holds exactly want: every key resolves to
// its slot, nothing else is stored, the counters agree, and every shard
// keeps its load bound.
func checkFlatIndex(t *testing.T, stage string, ix *flatIndex, want map[uint64]int32) {
	t.Helper()
	if n := ix.size(); n != len(want) {
		t.Fatalf("%s: index holds %d keys, oracle %d", stage, n, len(want))
	}
	for k, slot := range want {
		if loc, ok := ix.get(k); !ok || loc != uint64(slot)+1 {
			t.Fatalf("%s: get(%d) = locator %d,%v; oracle slot %d", stage, k, loc, ok, slot)
		}
	}
	stored := 0
	ix.each(func(k uint64, slot int32) {
		stored++
		if got, ok := want[k]; !ok || got != slot {
			t.Fatalf("%s: index stores %d -> slot %d, oracle has %d,%v", stage, k, slot, got, ok)
		}
	})
	if stored != len(want) {
		t.Fatalf("%s: %d entries stored, oracle %d", stage, stored, len(want))
	}
	for i := range ix.shards {
		if sh := &ix.shards[i]; 2*sh.n > len(sh.ents) {
			t.Fatalf("%s: shard %d holds %d keys in %d slots", stage, i, sh.n, len(sh.ents))
		}
	}
}

// TestPKIndexMatchesOracle drives the bare flat index and a map through
// the same seeded random put / overwrite / delete / lookup sequence.
// Keys come from a small dense range (key 0 included) and from
// TPC-C-shaped packed keys, so shards collide, grow from their minimum
// size and shift entries back on delete. Every hundredth step or so the
// whole index is checked against the map.
func TestPKIndexMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		randKey := func() uint64 {
			if rnd.Intn(2) == 0 {
				return uint64(rnd.Intn(3000))
			}
			return (uint64(rnd.Intn(4))<<4|uint64(rnd.Intn(10)))<<32 | uint64(rnd.Intn(400))
		}
		ix := newFlatIndex(0) // minimum-sized shards: every one has to grow
		oracle := map[uint64]int32{}
		checks := 0
		for step := 0; step < 40000; step++ {
			k := randKey()
			switch op := rnd.Intn(100); {
			case op < 55:
				slot := int32(rnd.Intn(1 << 20))
				ix.put(k, slot)
				oracle[k] = slot
			case op < 90:
				ix.del(k)
				delete(oracle, k)
			case op < 99:
				slot, want := oracle[k]
				if loc, ok := ix.get(k); ok != want || (ok && loc != uint64(slot)+1) {
					t.Fatalf("seed %d step %d: get(%d) = locator %d,%v; oracle slot %d,%v", seed, step, k, loc, ok, slot, want)
				}
			default:
				checkFlatIndex(t, "mid-sequence", &ix, oracle)
				checks++
			}
		}
		checkFlatIndex(t, "final index", &ix, oracle)
		if checks < 100 {
			t.Fatalf("seed %d: only %d mid-sequence checks — the case is vacuous", seed, checks)
		}
	}
}

// TestRidIndexMatchesOracle drives a partition — the one owner of a flat
// index, which maps each row's identity (its packed primary key) to its
// slot — and a map through one seeded random insert / duplicate insert
// / patch / delete / lookup sequence, as loads and apply step 3 do. Keys
// come from a small dense range (key 0 included) and from TPC-C-shaped
// packed keys, so slots are recycled and shards collide, grow from their
// minimum size and shift entries back on delete. Every hundredth step or
// so the whole index is checked against the map.
func TestRidIndexMatchesOracle(t *testing.T) {
	s := kvSchema()
	for seed := int64(1); seed <= 5; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		randKey := func() uint64 {
			if rnd.Intn(2) == 0 {
				return uint64(rnd.Intn(2500))
			}
			return (uint64(rnd.Intn(4))<<4|uint64(rnd.Intn(10)))<<32 | uint64(rnd.Intn(300))
		}
		p := NewPartition(s, 0) // minimum-sized shards: every one has to grow
		oracle := map[uint64]int64{}
		checks := 0
		for step := 0; step < 40000; step++ {
			k := randKey()
			_, live := oracle[k]
			switch op := rnd.Intn(100); {
			case op < 45 && !live:
				v := int64(rnd.Intn(1000))
				if err := p.Insert(k, tuple(s, int64(k), v)); err != nil {
					t.Fatal(err)
				}
				oracle[k] = v
			case op < 45:
				if err := p.Insert(k, tuple(s, int64(k), 0)); err == nil {
					t.Fatalf("seed %d step %d: duplicate insert of key %d accepted", seed, step, k)
				}
			case op < 65 && live:
				v := int64(rnd.Intn(1000))
				slot, _ := p.Locate(k)
				if err := p.PatchSlot(slot, uint32(s.Offset(1)), u64le(v)); err != nil {
					t.Fatal(err)
				}
				oracle[k] = v
			case op < 99 && live:
				if err := p.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(oracle, k)
			case op < 99:
				if _, ok := p.Locate(k); ok {
					t.Fatalf("seed %d step %d: key %d located, oracle has it deleted", seed, step, k)
				}
			default:
				checkPartitionIndex(t, "mid-sequence", p, oracle)
				checks++
			}
		}
		checkPartitionIndex(t, "final partition", p, oracle)
		if checks < 100 {
			t.Fatalf("seed %d: only %d mid-sequence checks — the case is vacuous", seed, checks)
		}
	}
}

// TestGetByPKMissAndReinsert covers the table-level contract: a key
// never inserted misses, a deleted key misses, and a key deleted and
// re-inserted in one apply round — both entries route to the key's
// partition and apply there in VID order — resolves to the new tuple.
func TestGetByPKMissAndReinsert(t *testing.T) {
	r := NewReplica(4)
	s := kvSchema()
	tbl := r.CreateTable(s, 64)
	for k := int64(1); k <= 50; k++ {
		if err := r.LoadTuple(1, uint64(k), tuple(s, k, k*10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := tbl.GetByPK(999); ok {
		t.Fatal("a key never inserted resolves")
	}
	buf := proplog.NewBuffer(0)
	buf.Add(1, mkEntry(5, proplog.Delete, 7, 0, nil))
	buf.Add(1, mkEntry(6, proplog.Insert, 7, 0, tuple(s, 7, 777)))
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
	tbl := r.CreateTable(s, rows)
	keys := make([]uint64, rows)
	for i := range keys {
		// TPC-C's order-line packing: ((w<<4|d)<<32|o)<<4 | n.
		w, d, o, n := uint64(1+i%4), uint64(1+i/4%10), uint64(1+i/40%300), uint64(1+i/12000)
		keys[i] = ((w<<4|d)<<32|o)<<4 | n
		tup := s.NewTuple()
		s.PutInt64(tup, 0, int64(keys[i]))
		if err := r.LoadTuple(1, keys[i], tup); err != nil {
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
