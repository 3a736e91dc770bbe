package mvcc

import (
	"errors"
	"fmt"
	"runtime"
	"sort"

	"batchdb/internal/vid"
)

// Errors returned by transactional operations. ErrConflict aborts under
// first-writer-wins snapshot isolation and is retryable; the others are
// logic errors surfaced to the stored procedure.
var (
	ErrConflict     = errors.New("mvcc: write-write conflict")
	ErrDuplicateKey = errors.New("mvcc: duplicate primary key")
	ErrNotFound     = errors.New("mvcc: row not found")
)

// OpKind classifies a write-set entry; the values match the propagated
// update types of paper Fig. 3.
type OpKind uint8

// Write-set entry kinds.
const (
	OpInsert OpKind = iota
	OpUpdate
	OpDelete
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// WriteOp records one row mutation for commit/abort processing and for
// update extraction (paper §4: workers export a physical log of updates
// separate from the durable log).
type WriteOp struct {
	Table *Table
	Kind  OpKind
	Chain *Chain
	// New is the record installed by this transaction (insert/update).
	New *Record
	// Old is the superseded committed record (update/delete).
	Old *Record
	// Cols lists the column ordinals changed by an update in ascending
	// order, enabling field-specific propagation; nil means the whole
	// tuple changed.
	Cols []int
}

// Txn is a transaction against the OLTP store. Read-write transactions
// must finish with exactly one of Commit or Abort. A Txn is not safe for
// concurrent use; each runs on one OLTP worker.
type Txn struct {
	store *Store
	snap  uint64 // snapshot VID
	id    uint64 // marker (markerBit set); 0 for read-only
	slot  int    // active-set slot
	ops   []WriteOp
	done  bool
}

// Snapshot returns the VID this transaction reads at.
func (tx *Txn) Snapshot() uint64 { return tx.snap }

// ReadOnly reports whether the transaction can write.
func (tx *Txn) ReadOnly() bool { return tx.id == 0 }

// Writes exposes the write set. Valid until the Txn is reused; callers
// (the OLTP worker's update extractor) read it immediately after Commit.
func (tx *Txn) Writes() []WriteOp { return tx.ops }

// read returns the version of c visible to tx (own uncommitted writes
// included), or nil.
func (tx *Txn) read(c *Chain) *Record {
	for r := c.head.Load(); r != nil; r = r.older.Load() {
		from := r.vidFrom.Load()
		if from == tx.id && tx.id != 0 {
			if r.vidTo.Load() == tx.id {
				return nil // own delete of own earlier write
			}
			return r
		}
		if isMarker(from) {
			continue // other transaction's pending write, or aborted
		}
		if from > tx.snap {
			continue
		}
		// Committed at or before our snapshot: this is the decisive
		// version — older ones are superseded.
		to := r.vidTo.Load()
		if to == tx.id && tx.id != 0 {
			return nil // we deleted it
		}
		if isMarker(to) || tx.snap < to {
			return r
		}
		return nil
	}
	return nil
}

// Get returns the tuple image of the row with the given packed key
// visible to this transaction.
func (tx *Txn) Get(t *Table, key uint64) ([]byte, bool) {
	c := t.getChain(key)
	if c == nil {
		return nil, false
	}
	r := tx.read(c)
	if r == nil {
		return nil, false
	}
	return r.Data, true
}

// ReadChain returns the version of an already-located chain visible to
// this transaction (used by secondary-index scans).
func (tx *Txn) ReadChain(c *Chain) *Record { return tx.read(c) }

// findOp locates this transaction's write-set entry for chain c.
func (tx *Txn) findOp(c *Chain) *WriteOp {
	for i := len(tx.ops) - 1; i >= 0; i-- {
		if tx.ops[i].Chain == c {
			return &tx.ops[i]
		}
	}
	return nil
}

// Insert adds a new row. The tuple is adopted (not copied); callers must
// not reuse it.
func (tx *Txn) Insert(t *Table, tup []byte) error {
	if tx.ReadOnly() {
		return errors.New("mvcc: insert in read-only transaction")
	}
	if err := t.checkWidth(tup); err != nil {
		return err
	}
	c, err := tx.insertIntoChain(t, t.getOrCreateChain(t.KeyFn(tup)), tup)
	if err != nil {
		return err
	}
	t.indexInto(c, tup)
	return nil
}

// insertIntoChain runs the insert protocol against a resolved chain,
// installing tup and recording the write-set entry. It
// returns the chain actually written (re-resolved if GC retired the
// original mid-flight). Secondary indexing is the caller's job — the
// single-key path indexes immediately, the batch path amortizes it into
// one PutBatch per index.
func (tx *Txn) insertIntoChain(t *Table, c *Chain, tup []byte) (*Chain, error) {
	for {
		head := c.head.Load()
		if head == retiredRecord {
			// GC is unlinking this chain; it clears the primary-index
			// entry right after poisoning, so re-resolving yields a
			// fresh chain almost immediately.
			runtime.Gosched()
			c = t.getOrCreateChain(c.Key)
			continue
		}
		if head == nil {
			rec := newRecord(tx.id, tup, nil)
			if !c.head.CompareAndSwap(nil, rec) {
				continue // racing inserter; re-evaluate
			}
			tx.ops = append(tx.ops, WriteOp{Table: t, Kind: OpInsert, Chain: c, New: rec})
			return c, nil
		}
		from := head.vidFrom.Load()
		if from == abortedMarker {
			// Lazily unlink an aborted head and retry.
			c.head.CompareAndSwap(head, head.older.Load())
			continue
		}
		if from == tx.id {
			return nil, ErrDuplicateKey // we already wrote this key
		}
		if isMarker(from) {
			return nil, ErrConflict
		}
		to := head.vidTo.Load()
		if isMarker(to) {
			return nil, ErrConflict
		}
		if to == vid.Infinity {
			if from <= tx.snap {
				return nil, ErrDuplicateKey
			}
			return nil, ErrConflict // row created after our snapshot
		}
		// Head is a committed delete.
		if to > tx.snap {
			return nil, ErrConflict // deleted after our snapshot
		}
		rec := newRecord(tx.id, tup, head)
		if !c.head.CompareAndSwap(head, rec) {
			return nil, ErrConflict // lost the re-insert race
		}
		tx.ops = append(tx.ops, WriteOp{Table: t, Kind: OpInsert, Chain: c, New: rec})
		return c, nil
	}
}

// InsertBatch adds many new rows in one transaction with batch-grouped
// index access (the ALEX pattern: group keys by target structure before
// touching it). Chains for the whole batch resolve with one primary-
// index lock per touched shard, and each secondary index is populated
// by a single sorted PutBatch. Tuples are adopted; the rows commit or
// abort atomically with the rest of the transaction. On error the
// already-installed prefix stays in the write set for Abort to unwind.
func (tx *Txn) InsertBatch(t *Table, tups [][]byte) error {
	if tx.ReadOnly() {
		return errors.New("mvcc: insert in read-only transaction")
	}
	keys := make([]uint64, len(tups))
	for i, tup := range tups {
		if err := t.checkWidth(tup); err != nil {
			return err
		}
		keys[i] = t.KeyFn(tup)
	}
	// Duplicate keys inside one batch can never both commit — reject
	// before touching shared structures.
	seen := make(map[uint64]struct{}, len(keys))
	for _, k := range keys {
		if _, dup := seen[k]; dup {
			return ErrDuplicateKey
		}
		seen[k] = struct{}{}
	}
	chains := make([]*Chain, len(keys))
	t.getOrCreateChains(keys, chains)
	for i, tup := range tups {
		c, err := tx.insertIntoChain(t, chains[i], tup)
		if err != nil {
			return err
		}
		chains[i] = c
	}
	// Batched secondary indexing: one writer-lock acquisition per index
	// for the whole chunk instead of one per row.
	if len(t.sec) > 0 {
		skeys := make([]uint64, len(tups))
		for _, s := range t.sec {
			for i, tup := range tups {
				skeys[i] = s.KeyFn(tup)
			}
			s.sl.PutBatch(skeys, chains)
		}
	}
	return nil
}

func newRecord(from uint64, tup []byte, older *Record) *Record {
	r := &Record{Data: tup}
	r.vidFrom.Store(from)
	r.vidTo.Store(vid.Infinity)
	r.older.Store(older)
	return r
}

// lockHead validates that the newest committed version of c is visible
// at tx.snap and write-locks it. It returns the locked head.
func (tx *Txn) lockHead(c *Chain) (*Record, error) {
	head := c.head.Load()
	for head != nil && head != retiredRecord && head.vidFrom.Load() == abortedMarker {
		c.head.CompareAndSwap(head, head.older.Load())
		head = c.head.Load()
	}
	if head == nil || head == retiredRecord {
		return nil, ErrNotFound
	}
	from := head.vidFrom.Load()
	if isMarker(from) {
		return nil, ErrConflict // another transaction's pending write
	}
	if from > tx.snap {
		return nil, ErrConflict // updated after our snapshot
	}
	to := head.vidTo.Load()
	if isMarker(to) {
		return nil, ErrConflict
	}
	if to != vid.Infinity {
		if to > tx.snap {
			return nil, ErrConflict // deleted after our snapshot
		}
		return nil, ErrNotFound // deleted before our snapshot
	}
	if !head.vidTo.CompareAndSwap(vid.Infinity, tx.id) {
		return nil, ErrConflict
	}
	return head, nil
}

// Update modifies the row with the given key. mutate receives a private
// copy of the current tuple and applies its changes in place; cols lists
// the column ordinals being changed (used for field-specific update
// propagation, paper Fig. 3/6). Passing cols == nil propagates the whole
// tuple.
func (tx *Txn) Update(t *Table, key uint64, cols []int, mutate func(tup []byte)) error {
	if tx.ReadOnly() {
		return errors.New("mvcc: update in read-only transaction")
	}
	c := t.getChain(key)
	if c == nil {
		return ErrNotFound
	}
	head := c.head.Load()
	cols = sortedCols(cols)
	if head != nil && head.vidFrom.Load() == tx.id && tx.findOp(c) != nil {
		return tx.updateOwn(t, c, head, cols, mutate)
	}
	head, err := tx.lockHead(c)
	if err != nil {
		return err
	}
	data := make([]byte, len(head.Data))
	copy(data, head.Data)
	mutate(data)
	rec := newRecord(tx.id, data, head)
	if !c.head.CompareAndSwap(head, rec) {
		// Cannot happen while we hold the write lock; recover anyway.
		head.vidTo.CompareAndSwap(tx.id, vid.Infinity)
		return ErrConflict
	}
	tx.maybeReindex(t, c, head.Data, data)
	tx.ops = append(tx.ops, WriteOp{Table: t, Kind: OpUpdate, Chain: c, New: rec, Old: head, Cols: cols})
	return nil
}

// updateOwn folds a second update of the same row into the existing
// write-set entry.
func (tx *Txn) updateOwn(t *Table, c *Chain, head *Record, cols []int, mutate func([]byte)) error {
	op := tx.findOp(c)
	if op.Kind == OpDelete {
		return ErrNotFound
	}
	data := make([]byte, len(head.Data))
	copy(data, head.Data)
	mutate(data)
	rec := newRecord(tx.id, data, head.older.Load())
	if !c.head.CompareAndSwap(head, rec) {
		return ErrConflict
	}
	tx.maybeReindex(t, c, head.Data, data)
	t.dropStaleKeys(c, head.Data) // the replaced image never committed
	op.New = rec
	op.Cols = mergeCols(op.Cols, cols)
	return nil
}

// sortedCols returns cols in ascending order. Callers mostly pass
// ordered literals, possibly shared between goroutines, so the slice is
// copied only when it has to be reordered.
func sortedCols(cols []int) []int {
	if sort.IntsAreSorted(cols) {
		return cols
	}
	cols = append([]int(nil), cols...)
	sort.Ints(cols)
	return cols
}

// mergeCols unions two changed-column lists, ascending; nil means "all
// columns" and absorbs everything.
func mergeCols(a, b []int) []int {
	if a == nil || b == nil {
		return nil
	}
	out := append([]int(nil), a...)
	for _, c := range b {
		found := false
		for _, e := range out {
			if e == c {
				found = true
				break
			}
		}
		if !found {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// maybeReindex adds secondary-index entries for any index whose derived
// key changed between old and new tuple images.
func (tx *Txn) maybeReindex(t *Table, c *Chain, old, new_ []byte) {
	for _, s := range t.sec {
		if s.KeyFn(old) != s.KeyFn(new_) {
			s.sl.Put(s.KeyFn(new_), c)
		}
	}
}

// Delete removes the row with the given key.
func (tx *Txn) Delete(t *Table, key uint64) error {
	if tx.ReadOnly() {
		return errors.New("mvcc: delete in read-only transaction")
	}
	c := t.getChain(key)
	if c == nil {
		return ErrNotFound
	}
	head := c.head.Load()
	if head != nil && head.vidFrom.Load() == tx.id && tx.findOp(c) != nil {
		return tx.deleteOwn(t, c, head)
	}
	head, err := tx.lockHead(c)
	if err != nil {
		return err
	}
	tx.ops = append(tx.ops, WriteOp{Table: t, Kind: OpDelete, Chain: c, Old: head})
	return nil
}

// deleteOwn deletes a row this transaction inserted or updated.
func (tx *Txn) deleteOwn(t *Table, c *Chain, head *Record) error {
	op := tx.findOp(c)
	switch op.Kind {
	case OpDelete:
		return ErrNotFound
	case OpInsert:
		// Unlink our pending insert and drop the op.
		c.head.CompareAndSwap(head, head.older.Load())
		head.vidFrom.Store(abortedMarker)
		tx.removeOp(c)
	default: // OpUpdate: revert to deleting the committed version.
		old := op.Old
		c.head.CompareAndSwap(head, old)
		head.vidFrom.Store(abortedMarker)
		op.Kind = OpDelete
		op.New = nil
		op.Cols = nil
	}
	tx.store.discard(t, c, head.Data)
	return nil
}

func (tx *Txn) removeOp(c *Chain) {
	for i := range tx.ops {
		if tx.ops[i].Chain == c {
			tx.ops = append(tx.ops[:i], tx.ops[i+1:]...)
			return
		}
	}
}

// Commit installs the transaction's writes at a fresh commit VID and
// publishes it. It returns the commit VID (0 for an empty write set).
func (tx *Txn) Commit() (uint64, error) {
	if tx.done {
		return 0, errors.New("mvcc: transaction already finished")
	}
	tx.done = true
	defer tx.store.release(tx)
	if len(tx.ops) == 0 {
		return 0, nil
	}
	cv := tx.store.VIDs.Allocate()
	for i := range tx.ops {
		op := &tx.ops[i]
		switch op.Kind {
		case OpInsert:
			op.New.vidFrom.Store(cv)
		case OpUpdate:
			op.New.vidFrom.Store(cv)
			op.Old.vidTo.Store(cv)
		case OpDelete:
			op.Old.vidTo.Store(cv)
		}
	}
	tx.store.VIDs.Publish(cv)
	return cv, nil
}

// Abort rolls back all pending writes.
func (tx *Txn) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	defer tx.store.release(tx)
	// Undo in reverse order so chained own-writes unwind correctly.
	for i := len(tx.ops) - 1; i >= 0; i-- {
		op := &tx.ops[i]
		switch op.Kind {
		case OpInsert:
			op.Chain.head.CompareAndSwap(op.New, op.New.older.Load())
			op.New.vidFrom.Store(abortedMarker)
			tx.store.discard(op.Table, op.Chain, op.New.Data)
		case OpUpdate:
			op.Chain.head.CompareAndSwap(op.New, op.Old)
			op.New.vidFrom.Store(abortedMarker)
			op.Old.vidTo.CompareAndSwap(tx.id, vid.Infinity)
			tx.store.discard(op.Table, op.Chain, op.New.Data)
		case OpDelete:
			op.Old.vidTo.CompareAndSwap(tx.id, vid.Infinity)
		}
	}
	tx.ops = tx.ops[:0]
}
