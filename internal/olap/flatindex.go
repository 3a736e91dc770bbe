package olap

import "sync"

const (
	flatShardBits = 6
	flatShards    = 1 << flatShardBits
	// flatMinSlots is a shard's smallest entry array (a power of two).
	flatMinSlots = 8
	// flatHashMul is the Fibonacci-hashing multiplier: the product's top
	// bits pick the shard, the bits below them the home slot.
	flatHashMul = 0x9E3779B97F4A7C15
)

// flatEntry is one slot of a shard's open-addressed array: 16 bytes, so a
// probe that hits its home slot touches one cache line for key and
// locator together. loc 0 marks an empty slot, so locators are non-zero
// (pkLoc, ridLoc).
type flatEntry struct {
	key uint64
	loc uint64
}

// pkLoc packs a tuple's position — partition ordinal and slot — into a
// non-zero locator. Slots never move (a delete tombstones, an insert
// reuses a free slot or appends; nothing compacts), so a locator stays
// valid until its row is deleted, while the partition's data array
// itself may regrow: resolve a locator against the partition at read
// time, never cache the bytes.
func pkLoc(part int, slot int32) uint64 { return uint64(part+1)<<32 | uint64(uint32(slot)) }

// ridLoc is the locator a partition's RowID index stores for slot: the
// slot itself under a set high bit, which int32(loc) takes off again.
func ridLoc(slot int32) uint64 { return pkLoc(0, slot) }

// flatShard is one open-addressed (key, locator) array: linear probing,
// load at most one half, backward-shift deletion (no tombstones, so
// probe sequences never lengthen with churn).
type flatShard struct {
	// mu serializes writers only: step 3 applies the partitions of one
	// table in parallel, and two of them may insert into the same shard.
	mu   sync.Mutex
	ents []flatEntry // len is a power of two
	// shift positions a hash in ents: home = (h << flatShardBits) >> shift.
	shift uint8
	n     int
}

// flatIndex maps 64-bit keys to non-zero locators: flatShards
// independent open-addressed arrays. It is both of the replica's hash
// indexes — a table's primary key → (partition, slot), which query probes
// read, and a partition's RowID → slot, which apply step 3 joins a
// round's updates through.
//
// Reads take no lock and need none: the index is written only at zero
// pins. Writers to one PK index (step 3, one goroutine per partition)
// serialize per shard; a RowID index has one writer and finds every lock
// free.
type flatIndex struct {
	shards [flatShards]flatShard
}

// newFlatIndex returns an empty index sized so that capacityHint keys
// spread over the shards stay under the load bound without growing.
func newFlatIndex(capacityHint int) *flatIndex {
	slots, shift := flatMinSlots, uint8(64-3) // 3 = log2(flatMinSlots)
	for slots < 2*capacityHint/flatShards {
		slots <<= 1
		shift--
	}
	ix := &flatIndex{}
	for i := range ix.shards {
		ix.shards[i] = flatShard{ents: make([]flatEntry, slots), shift: shift}
	}
	return ix
}

// get returns key's locator.
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

// put stores loc under key, replacing any existing entry.
func (ix *flatIndex) put(key, loc uint64) {
	s := ix.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if 2*(s.n+1) > len(s.ents) {
		s.grow()
	}
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

// del removes key if it maps to loc. The locator check makes a delete
// and a re-insert of the same key commute: step 3 runs them on
// different goroutines when the two rows live in different partitions.
func (ix *flatIndex) del(key, loc uint64) {
	s := ix.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	mask := uint64(len(s.ents) - 1)
	i := s.home(key) & mask
	for ; ; i = (i + 1) & mask {
		e := s.ents[i]
		if e.loc == 0 {
			return
		}
		if e.key == key {
			if e.loc != loc {
				return
			}
			break
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
