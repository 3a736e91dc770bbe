// Package ingest implements BatchDB's bulk-load path: a batch-grouped
// row-stream loader that rides the normal OLTP machinery — every chunk
// is one stored-procedure call, so it inherits snapshot isolation,
// group-commit durability, command-log recovery and update propagation
// to the OLAP replicas for free — governed by an admission controller
// that keeps the interactive OLTP p99 within a configured multiple of
// its unloaded baseline (the paper's performance-isolation promise,
// extended from placement to workload rate).
//
// The grouped insert path follows ALEX's batch-insertion playbook:
// keys are grouped by target index shard before any shared structure is
// touched, so one chunk takes each lock once instead of once per row.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"

	"batchdb/internal/mvcc"
	"batchdb/internal/oltp"
	"batchdb/internal/storage"
)

// ProcName is the bulk-ingest stored procedure installed by
// RegisterProc. One call inserts one encoded chunk atomically.
const ProcName = "batchdb.ingest"

// Chunk args layout: [1 flags][2 tableID][4 nrows][4 tupSize][rows...].
// No flag is defined: the flags byte is always 0, and a chunk carrying
// any other value is malformed.
const chunkHeaderSize = 1 + 2 + 4 + 4

// ErrBadChunk reports a malformed chunk encoding.
var ErrBadChunk = errors.New("ingest: malformed chunk")

// EncodeChunk packs rows destined for table into one stored-procedure
// argument blob. All rows must have the same length (fixed-size
// tuples).
func EncodeChunk(table storage.TableID, rows [][]byte) []byte {
	tupSize := 0
	if len(rows) > 0 {
		tupSize = len(rows[0])
	}
	buf := make([]byte, chunkHeaderSize, chunkHeaderSize+len(rows)*tupSize)
	binary.LittleEndian.PutUint16(buf[1:], uint16(table))
	binary.LittleEndian.PutUint32(buf[3:], uint32(len(rows)))
	binary.LittleEndian.PutUint32(buf[7:], uint32(tupSize))
	for _, r := range rows {
		if len(r) != tupSize {
			panic("ingest: ragged rows in chunk")
		}
		buf = append(buf, r...)
	}
	return buf
}

// DecodeChunk unpacks an EncodeChunk blob. The returned rows alias
// args — safe on both the live path (args outlive the call) and the
// replay path (the WAL reader allocates a fresh body per record).
func DecodeChunk(args []byte) (table storage.TableID, rows [][]byte, err error) {
	if len(args) < chunkHeaderSize {
		return 0, nil, fmt.Errorf("%w: %d-byte args", ErrBadChunk, len(args))
	}
	if flags := args[0]; flags != 0 {
		return 0, nil, fmt.Errorf("%w: undefined flags %#02x", ErrBadChunk, flags)
	}
	table = storage.TableID(binary.LittleEndian.Uint16(args[1:]))
	n := int(binary.LittleEndian.Uint32(args[3:]))
	tupSize := int(binary.LittleEndian.Uint32(args[7:]))
	body := args[chunkHeaderSize:]
	if tupSize <= 0 || n <= 0 || len(body) != n*tupSize {
		return 0, nil, fmt.Errorf("%w: %d rows x %d bytes in %d-byte body", ErrBadChunk, n, tupSize, len(body))
	}
	rows = make([][]byte, n)
	for i := range rows {
		rows[i] = body[i*tupSize : (i+1)*tupSize]
	}
	return table, rows, nil
}

// RegisterProc installs the bulk-ingest stored procedure on e, in the
// bulk accounting class so chunk latencies stay out of the interactive
// histogram the governor samples. Must be called before Start — and
// before recovery replay on the boot path, so replayed ingest records
// find their procedure.
func RegisterProc(e *oltp.Engine) {
	store := e.Store()
	e.RegisterBulk(ProcName, func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		tid, rows, err := DecodeChunk(args)
		if err != nil {
			return nil, err
		}
		t := store.Table(tid)
		if t == nil {
			return nil, fmt.Errorf("ingest: no table %d", tid)
		}
		return nil, tx.InsertBatch(t, rows)
	})
}
