// Package proplog defines BatchDB's physical update-propagation log
// (paper §4 "Update propagation", Fig. 3).
//
// Unlike the durable command log (internal/wal), which records logical
// stored-procedure calls, the propagation log carries *physical* updates
// to individual records so the OLAP replica can apply them without
// re-executing transactions. To avoid synchronization between OLTP
// worker threads, each worker accumulates its own Buffer; updates from
// one worker are ordered by snapshot VID (a worker's commits are
// sequential), while updates of one transaction may interleave with
// other workers' transactions — exactly the situation of Fig. 3/4, which
// the OLAP replica's step-1 merge resolves.
package proplog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"batchdb/internal/storage"
)

// Kind is the update type of paper Fig. 3.
type Kind uint8

// Update kinds.
const (
	Insert Kind = iota
	Update
	Delete
)

func (k Kind) String() string {
	switch k {
	case Insert:
		return "I"
	case Update:
		return "U"
	case Delete:
		return "D"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Entry is one propagated update (one row of Fig. 3). A transaction that
// changes several fields of a tuple produces one Entry per contiguous
// field when field-specific propagation is enabled, or a single
// whole-tuple Entry otherwise.
type Entry struct {
	// VID is the commit VID of the producing transaction.
	VID uint64
	// Kind says whether this inserts, patches, or deletes a tuple.
	Kind Kind
	// Key is the target row's packed primary key (storage.KeyFunc): its
	// identity from the primary's chain to the replica's partition index.
	// The paper ships a hidden row-identifier surrogate instead (§5), as its
	// keys may be wide; here every key is a unique, immutable uint64.
	Key uint64
	// Offset and Size delimit the patched byte range for updates; for
	// inserts Offset is 0 and Size the full tuple width; for deletes
	// both are 0.
	Offset uint32
	Size   uint32
	// Data holds Size bytes: the new field value or the inserted tuple.
	Data []byte
}

// TableBatch groups a worker's entries for one table.
type TableBatch struct {
	Table   storage.TableID
	Entries []Entry
}

// Batch is one worker's push: all updates it extracted since the last
// push, grouped by table, VID-ordered within the worker.
type Batch struct {
	Worker int
	Tables []TableBatch
}

// Buffer accumulates one worker's updates between pushes. It is owned by
// a single OLTP worker and requires no synchronization (paper §4: "each
// thread prepares its own set of updates").
type Buffer struct {
	worker  int
	byTable map[storage.TableID]int
	// tables has one slot per table the worker has ever written. A slot's
	// Entries is nil from Take until the table's next Add, which sizes it
	// from hint: what the slot carried at the Take before. Push sizes
	// change slowly, so a round's entries are allocated once instead of
	// being regrown from nothing at every push.
	tables  []TableBatch
	hint    []int
	entries int
	// lastTable/lastIdx cache the previous Add's table: a transaction's
	// writes cluster by table, making this the common case.
	lastTable storage.TableID
	lastIdx   int
}

// NewBuffer returns an empty buffer for the given worker.
func NewBuffer(worker int) *Buffer {
	return &Buffer{worker: worker, byTable: make(map[storage.TableID]int)}
}

// Add appends an entry for a table.
func (b *Buffer) Add(table storage.TableID, e Entry) {
	var i int
	if b.entries > 0 && table == b.lastTable {
		i = b.lastIdx
	} else {
		var ok bool
		i, ok = b.byTable[table]
		if !ok {
			i = len(b.tables)
			b.byTable[table] = i
			b.tables = append(b.tables, TableBatch{Table: table})
			b.hint = append(b.hint, 0)
		}
		b.lastTable, b.lastIdx = table, i
	}
	tb := &b.tables[i]
	if tb.Entries == nil {
		// A quarter of slack, so that a push somewhat larger than the last
		// still fits without a regrow-and-copy.
		tb.Entries = make([]Entry, 0, b.hint[i]+b.hint[i]/4+8)
	}
	tb.Entries = append(tb.Entries, e)
	b.entries++
}

// Len returns the number of buffered entries.
func (b *Buffer) Len() int { return b.entries }

// Take returns the buffered batch — the tables that received entries
// since the last Take — and resets the buffer. The returned batch owns
// its storage; the buffer starts fresh.
func (b *Buffer) Take() Batch {
	out := Batch{Worker: b.worker, Tables: make([]TableBatch, 0, len(b.tables))}
	for i := range b.tables {
		if tb := &b.tables[i]; tb.Entries != nil {
			out.Tables = append(out.Tables, *tb)
			b.hint[i] = len(tb.Entries)
			tb.Entries = nil
		}
	}
	b.entries = 0
	return out
}

// --- wire encoding ----------------------------------------------------

var (
	// ErrTruncated reports a batch that ends mid-record.
	ErrTruncated = errors.New("proplog: truncated batch")
	// ErrMalformed reports a batch AppendEncode cannot have produced: an
	// unknown kind, a delete that carries data, or bytes after the last
	// entry.
	ErrMalformed = errors.New("proplog: malformed batch")
)

// AppendEncode serializes the batch onto dst and returns the result.
// The format is length-delimited and position-independent so batches can
// be shipped over the network transport as single messages.
func AppendEncode(dst []byte, b *Batch) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Worker))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Tables)))
	for i := range b.Tables {
		tb := &b.Tables[i]
		dst = binary.LittleEndian.AppendUint16(dst, uint16(tb.Table))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tb.Entries)))
		for j := range tb.Entries {
			e := &tb.Entries[j]
			dst = binary.LittleEndian.AppendUint64(dst, e.VID)
			dst = append(dst, byte(e.Kind))
			dst = binary.LittleEndian.AppendUint64(dst, e.Key)
			dst = binary.LittleEndian.AppendUint32(dst, e.Offset)
			dst = binary.LittleEndian.AppendUint32(dst, e.Size)
			dst = append(dst, e.Data...)
		}
	}
	return dst
}

// Decode parses a batch produced by AppendEncode. The batch owns its
// storage — one entry array and one data array, each sized by a first
// pass over the framing — and nothing in it aliases buf, so a receiver
// can hand its receive buffer back as soon as Decode returns. Counts in
// buf are not trusted: nothing is allocated before the framing has been
// walked to its end. buf must be exactly one batch; whatever Decode
// accepts, AppendEncode turns back into the same bytes.
func Decode(buf []byte) (Batch, error) {
	var b Batch
	if len(buf) < 8 {
		return b, ErrTruncated
	}
	b.Worker = int(binary.LittleEndian.Uint32(buf))
	nt := int(binary.LittleEndian.Uint32(buf[4:]))
	if nt > (len(buf)-8)/6 {
		return b, ErrTruncated
	}

	entries, dataBytes := 0, 0
	pos := 8
	for t := 0; t < nt; t++ {
		if len(buf)-pos < 6 {
			return b, ErrTruncated
		}
		ne := int(binary.LittleEndian.Uint32(buf[pos+2:]))
		pos += 6
		for i := 0; i < ne; i++ {
			if len(buf)-pos < 25 {
				return b, ErrTruncated
			}
			kind := Kind(buf[pos+8])
			size := int(binary.LittleEndian.Uint32(buf[pos+21:]))
			if kind > Delete || (kind == Delete && size != 0) {
				return b, ErrMalformed
			}
			pos += 25
			if len(buf)-pos < size {
				return b, ErrTruncated
			}
			pos += size
			dataBytes += size
		}
		entries += ne
	}
	if pos != len(buf) {
		return b, ErrMalformed
	}

	b.Tables = make([]TableBatch, nt)
	arena := make([]Entry, entries)
	data := make([]byte, dataBytes)
	pos = 8
	for t := range b.Tables {
		ne := int(binary.LittleEndian.Uint32(buf[pos+2:]))
		b.Tables[t] = TableBatch{
			Table:   storage.TableID(binary.LittleEndian.Uint16(buf[pos:])),
			Entries: arena[:ne:ne],
		}
		arena = arena[ne:]
		pos += 6
		for i := range b.Tables[t].Entries {
			e := &b.Tables[t].Entries[i]
			e.VID = binary.LittleEndian.Uint64(buf[pos:])
			e.Kind = Kind(buf[pos+8])
			e.Key = binary.LittleEndian.Uint64(buf[pos+9:])
			e.Offset = binary.LittleEndian.Uint32(buf[pos+17:])
			e.Size = binary.LittleEndian.Uint32(buf[pos+21:])
			pos += 25
			if n := int(e.Size); n > 0 {
				e.Data = data[:n:n]
				copy(e.Data, buf[pos:])
				data = data[n:]
				pos += n
			}
		}
	}
	return b, nil
}
