package mvcc

import (
	"fmt"

	"batchdb/internal/index"
	"batchdb/internal/storage"
)

// SecondaryKeyFunc derives a packed secondary-index key from a tuple.
// Non-unique indexes must fold a uniquifier (e.g. low bits of the
// primary key) into the returned value, since index keys are unique.
type SecondaryKeyFunc func(tup []byte) uint64

// Secondary is an ordered secondary index over a table. Entries point to
// chains; because all versions of a row live in one chain, the index may
// return rows whose indexed attributes changed — readers re-derive the
// key from the version visible to them and skip mismatches.
type Secondary struct {
	KeyFn SecondaryKeyFunc
	sl    *index.SkipList[*Chain]
}

// Seek returns an ascending iterator over index entries with key >= key.
func (s *Secondary) Seek(key uint64) *index.Iterator[*Chain] { return s.sl.Seek(key) }

// Table is one relation in the OLTP replica: a primary hash index from
// packed key to version chain, a chain list for scans, and optional
// secondary indexes (paper Fig. 2: hash- and tree-based
// indexes over the same records).
type Table struct {
	Schema *storage.Schema
	// KeyFn packs a tuple's primary key into uint64.
	KeyFn storage.KeyFunc

	pk     *index.Hash[*Chain]
	chains *chainList
	sec    []*Secondary
}

// NewTable creates an empty table. capacityHint sizes the primary index.
func NewTable(schema *storage.Schema, keyFn storage.KeyFunc, capacityHint int) *Table {
	return &Table{
		Schema: schema,
		KeyFn:  keyFn,
		pk:     index.NewHash[*Chain](capacityHint),
		chains: newChainList(),
	}
}

// AddSecondary registers an ordered secondary index. Must be called
// before any data is inserted.
func (t *Table) AddSecondary(fn SecondaryKeyFunc) *Secondary {
	s := &Secondary{KeyFn: fn, sl: index.NewSkipList[*Chain](int64(len(t.sec)) + 1)}
	t.sec = append(t.sec, s)
	return s
}

// getChain returns the version chain for key, or nil.
func (t *Table) getChain(key uint64) *Chain {
	c, _ := t.pk.Get(key)
	return c
}

// getOrCreateChain returns the chain for key, creating and indexing an
// empty one if absent. Multiple racing creators converge on one chain.
// A new chain joins the scan list before the primary index publishes it:
// whoever can reach a chain through the index may retire it, and
// retiring releases its scan-list slot.
func (t *Table) getOrCreateChain(key uint64) *Chain {
	if c, ok := t.pk.Get(key); ok {
		return c
	}
	c := &Chain{Key: key}
	t.chains.append(c)
	won, inserted := t.pk.PutIfAbsent(key, c)
	if !inserted {
		t.chains.release(c.slot)
	}
	return won
}

// indexInto adds the chain to every secondary index under keys derived
// from tup.
func (t *Table) indexInto(c *Chain, tup []byte) {
	for _, s := range t.sec {
		s.sl.Put(s.KeyFn(tup), c)
	}
}

// getOrCreateChains resolves the chain for every key into out (input
// order) with one primary-index lock acquisition per touched shard —
// the batch counterpart of getOrCreateChain for bulk insert. As in the
// single-key path, a newly created chain joins the scan list before the
// index publishes it.
func (t *Table) getOrCreateChains(keys []uint64, out []*Chain) {
	inserted := make([]bool, len(keys))
	t.pk.GetOrPutBatch(keys, func(key uint64) *Chain {
		c := &Chain{Key: key}
		t.chains.append(c)
		return c
	}, out, inserted)
}

// checkWidth rejects a tuple that is not exactly the schema's width.
// Every tuple passes it before KeyFn reads it, and the OLAP replica
// stores fixed-width slots: a row of another width would commit here
// and fail every apply round that replays it.
func (t *Table) checkWidth(tup []byte) error {
	if len(tup) != t.Schema.TupleSize() {
		return fmt.Errorf("mvcc: a %d-byte tuple in table %s of %d-byte tuples", len(tup), t.Schema.Name, t.Schema.TupleSize())
	}
	return nil
}

// LoadRow installs a tuple at VID 0, the "initial load" state visible to
// every snapshot. It bypasses transactional machinery and must only be
// used to populate the database before the engine starts: seed loading,
// which recovery re-runs before replaying the command log, and
// checkpoint restore.
func (t *Table) LoadRow(tup []byte) error {
	if err := t.checkWidth(tup); err != nil {
		return err
	}
	c := t.getOrCreateChain(t.KeyFn(tup))
	if !c.head.CompareAndSwap(nil, newRecord(0, tup, nil)) {
		return ErrDuplicateKey
	}
	t.indexInto(c, tup)
	return nil
}

// Scan calls fn with the key and tuple of every row visible to tx, each
// once and in no particular order, until fn returns false. The tuple is
// the store's immutable image: fn may keep it but must not modify it.
func (t *Table) Scan(tx *Txn, fn func(key uint64, tup []byte) bool) {
	t.chains.forEach(func(c *Chain) bool {
		if r := tx.read(c); r != nil {
			return fn(c.Key, r.Data)
		}
		return true
	})
}

// ScanChains visits every chain in the table (all versions, all states),
// each at most once and in no particular order; callers apply snapshot
// visibility themselves (Txn.ReadChain).
func (t *Table) ScanChains(fn func(*Chain) bool) { t.chains.forEach(fn) }

// NumChains returns the number of chains in the table: rows that exist
// at some snapshot still readable, plus deleted rows GC has not retired
// yet.
func (t *Table) NumChains() int { return t.chains.live() }

// ScanListSlots returns the number of scan-list slots the table has ever
// reserved. Retired chains' slots are reused, so this tracks the peak
// NumChains, not the rows ever inserted.
func (t *Table) ScanListSlots() int { return t.chains.slots() }
