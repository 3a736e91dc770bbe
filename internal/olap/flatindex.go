package olap

const (
	flatShardBits = 6
	flatShards    = 1 << flatShardBits
	// flatMinSlots is a shard's smallest entry array (a power of two).
	flatMinSlots = 8
	// flatHashMul is the Fibonacci-hashing multiplier: the product's top
	// bits pick the shard, the bits below them the home slot, and its
	// fold routes the key to its partition (partitionOf).
	flatHashMul = 0x9E3779B97F4A7C15
)

// flatEntry is one slot of a shard's open-addressed array: 16 bytes, so a
// probe that hits its home slot touches one cache line for key and
// locator together. loc is the row's slot plus one; 0 marks an empty
// entry.
type flatEntry struct {
	key uint64
	loc uint64
}

// flatShard is one open-addressed (key, locator) array: linear probing,
// load at most one half, backward-shift deletion (no tombstones, so
// probe sequences never lengthen with churn).
type flatShard struct {
	ents []flatEntry // len is a power of two
	// shift positions a hash in ents: home = (h << flatShardBits) >> shift.
	shift uint8
	n     int
}

// flatIndex maps a partition's primary keys to their slots: flatShards
// independent open-addressed arrays. Apply step 3 joins a round's
// updates through it and query probes look rows up in it.
//
// It takes no lock and needs none: a partition's index has one writer —
// the load, the reload or the step-3 task of its partition — and is
// written only at zero pins, so a reader never meets a writer.
type flatIndex struct {
	shards [flatShards]flatShard
}

// newFlatIndex returns an empty index sized so that capacityHint keys
// spread over the shards stay under the load bound without growing.
func newFlatIndex(capacityHint int) flatIndex {
	slots, shift := flatMinSlots, uint8(64-3) // 3 = log2(flatMinSlots)
	for slots < 2*capacityHint/flatShards {
		slots <<= 1
		shift--
	}
	var ix flatIndex
	for i := range ix.shards {
		ix.shards[i] = flatShard{ents: make([]flatEntry, slots), shift: shift}
	}
	return ix
}

// get returns key's locator, its slot plus one. It returns the locator
// rather than the slot to stay small enough to inline into the
// executor's lookup loop (Table.FindPKs).
func (ix *flatIndex) get(key uint64) (uint64, bool) {
	h := key * flatHashMul
	s := &ix.shards[h>>(64-flatShardBits)]
	ents := s.ents
	mask := uint64(len(ents) - 1)
	for i := (h << flatShardBits) >> s.shift; ; i++ {
		e := &ents[i&mask]
		if e.key == key && e.loc != 0 {
			return e.loc, true
		}
		if e.loc == 0 {
			return 0, false
		}
	}
}

// shard returns the shard key hashes to.
func (ix *flatIndex) shard(key uint64) *flatShard {
	return &ix.shards[key*flatHashMul>>(64-flatShardBits)]
}

// home returns key's home slot, before masking to the array.
func (s *flatShard) home(key uint64) uint64 {
	return (key * flatHashMul << flatShardBits) >> s.shift
}

// put stores slot under key, replacing any existing entry.
func (ix *flatIndex) put(key uint64, slot int32) {
	s := ix.shard(key)
	if 2*(s.n+1) > len(s.ents) {
		s.grow()
	}
	loc := uint64(slot) + 1
	mask := uint64(len(s.ents) - 1)
	for i := s.home(key); ; i++ {
		e := &s.ents[i&mask]
		if e.loc == 0 {
			*e = flatEntry{key, loc}
			s.n++
			return
		}
		if e.key == key {
			e.loc = loc
			return
		}
	}
}

// grow doubles the shard's array and re-places every entry.
func (s *flatShard) grow() {
	old := s.ents
	s.ents = make([]flatEntry, 2*len(old))
	s.shift--
	mask := uint64(len(s.ents) - 1)
	for _, e := range old {
		if e.loc == 0 {
			continue
		}
		i := s.home(e.key)
		for s.ents[i&mask].loc != 0 {
			i++
		}
		s.ents[i&mask] = e
	}
}

// del removes key, if present.
func (ix *flatIndex) del(key uint64) {
	s := ix.shard(key)
	mask := uint64(len(s.ents) - 1)
	i := s.home(key) & mask
	for ; s.ents[i].key != key || s.ents[i].loc == 0; i = (i + 1) & mask {
		if s.ents[i].loc == 0 {
			return
		}
	}
	// Backward shift: pull every later entry of the probe run whose home
	// lies at or before the hole into it, so no lookup ever has to cross
	// an empty slot to reach its key.
	for j := (i + 1) & mask; s.ents[j].loc != 0; j = (j + 1) & mask {
		if k := s.home(s.ents[j].key) & mask; (j-k)&mask >= (j-i)&mask {
			s.ents[i] = s.ents[j]
			i = j
		}
	}
	s.ents[i] = flatEntry{}
	s.n--
}
