package proplog

import (
	"encoding/binary"
	"errors"

	"batchdb/internal/storage"
)

// A row chunk carries rows of one table, each under its packed primary
// key:
//
//	[table u16][count u32] then count × {key u64, len u32, tuple}
//
// It is the one format of snapshot rows: a checkpoint file frames row
// chunks on disk, and bootstrap and resync ship them to replica nodes.

// ErrBadRowChunk reports a row chunk that ends mid-row or carries bytes
// after its last row.
var ErrBadRowChunk = errors.New("proplog: malformed row chunk")

const rowChunkHeader = 2 + 4

// RowChunker cuts one table's stream of rows into row chunks of at most
// limit rows each and hands every chunk to emit. All chunks of the
// stream are encoded in one buffer, so emit must not keep the slice it
// is given.
type RowChunker struct {
	buf   []byte
	rows  int // in the chunk being built
	added int // in the stream
	limit int
	emit  func(chunk []byte) error
	err   error
}

// NewRowChunker starts a stream of table's rows.
func NewRowChunker(table storage.TableID, limit int, emit func(chunk []byte) error) *RowChunker {
	buf := binary.LittleEndian.AppendUint16(make([]byte, 0, 1<<12), uint16(table))
	return &RowChunker{buf: append(buf, 0, 0, 0, 0), limit: limit, emit: emit}
}

// Add appends one row, and emits the chunk once it holds limit rows. It
// reports false once an emit has failed, so that it can be handed to
// mvcc.Table.Scan as it is; Flush then returns the error.
func (w *RowChunker) Add(key uint64, tup []byte) bool {
	if w.err != nil {
		return false
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, key)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(tup)))
	w.buf = append(w.buf, tup...)
	w.added++
	if w.rows++; w.rows >= w.limit {
		w.Flush()
	}
	return w.err == nil
}

// Flush emits the rows added since the last chunk, if there are any, and
// returns the stream's first emit error.
func (w *RowChunker) Flush() error {
	if w.rows > 0 && w.err == nil {
		binary.LittleEndian.PutUint32(w.buf[2:], uint32(w.rows))
		w.err = w.emit(w.buf)
		w.buf, w.rows = w.buf[:rowChunkHeader], 0
	}
	return w.err
}

// Rows returns the number of rows added to the stream.
func (w *RowChunker) Rows() int { return w.added }

// DecodeRowChunk calls fn with every row of the row chunk buf, in
// order, and stops at fn's first error, which it returns. tup aliases
// buf. Counts in buf are not trusted: a chunk that ends mid-row or has
// bytes after its last row is ErrBadRowChunk, reported once the rows
// before the fault have been handed to fn.
func DecodeRowChunk(buf []byte, fn func(table storage.TableID, key uint64, tup []byte) error) error {
	if len(buf) < rowChunkHeader {
		return ErrBadRowChunk
	}
	table := storage.TableID(binary.LittleEndian.Uint16(buf))
	n := binary.LittleEndian.Uint32(buf[2:])
	p := buf[rowChunkHeader:]
	for ; n > 0; n-- {
		if len(p) < 12 {
			return ErrBadRowChunk
		}
		key := binary.LittleEndian.Uint64(p)
		l := binary.LittleEndian.Uint32(p[8:])
		p = p[12:]
		if uint64(len(p)) < uint64(l) {
			return ErrBadRowChunk
		}
		if err := fn(table, key, p[:l]); err != nil {
			return err
		}
		p = p[l:]
	}
	if len(p) != 0 {
		return ErrBadRowChunk
	}
	return nil
}
