// Package checkpoint implements BatchDB's durable checkpoints and the
// data-dir recovery path built on them.
//
// The command log alone (internal/wal) makes recovery replay the entire
// transaction history against re-loaded seed data. A checkpoint bounds
// that: it is a consistent snapshot of every table as-of a watermark VID
// captured at an OLTP batch boundary (oltp.Engine.CheckpointVID),
// written by scanning the MVCC store at that snapshot — the same
// non-blocking scan replica.LoadLocal uses — so checkpointing runs
// concurrently with transaction processing. Recovery restores the
// newest checkpoint that passes its CRCs (falling back to the previous
// one otherwise) and replays only WAL records with CommitVID above the
// checkpoint VID; WAL segments below the fallback point are truncated.
//
// On-disk format (ckpt-<vid>.ck): an 8-byte magic, then CRC-framed
// blocks [len u32][crc32C u32][kind u8 + payload]:
//
//	header  — checkpoint VID, table count
//	rows    — table id + a chunk of (rowID, tuple) pairs
//	table   — table id + total row count (closes one table)
//	trailer — total row count over all tables (proves completeness)
//
// The file is written to a temp name, fsynced, atomically renamed, and
// the directory fsynced; a MANIFEST (updated the same way) records which
// checkpoints exist, so a crash at any point leaves either the old or
// the new state, never a half checkpoint that recovery would trust.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"batchdb/internal/crash"
	"batchdb/internal/mvcc"
	"batchdb/internal/storage"
)

const fileMagic = "BDBCKPT1"

const (
	kindHeader  = 1
	kindRows    = 2
	kindTable   = 3
	kindTrailer = 4
)

// rowsPerFrame bounds a rows-frame so CRC validation and torn-write
// granularity stay fine-grained even for large tables.
const rowsPerFrame = 512

var (
	// ErrInvalid reports a checkpoint file that fails verification
	// (bad magic, CRC mismatch, truncation, or inconsistent counts);
	// recovery falls back to the previous checkpoint.
	ErrInvalid = errors.New("checkpoint: invalid checkpoint file")
	crcTable   = crc32.MakeTable(crc32.Castagnoli)
)

// Path returns the checkpoint file path for a VID inside dir.
func Path(dir string, vid uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%020d.ck", vid))
}

// Info describes one written checkpoint.
type Info struct {
	VID     uint64
	Path    string
	Bytes   int64
	Rows    int
	Elapsed time.Duration
}

// injWriter funnels every file write through the crash injector, so a
// test can kill the writer mid-checkpoint with a torn frame on disk.
type injWriter struct {
	f   *os.File
	n   int64
	inj *crash.Injector
}

func (w *injWriter) Write(p []byte) (int, error) {
	k, err := w.inj.HitWrite(crash.CkptWrite, len(p))
	if err != nil {
		if k > 0 {
			n, _ := w.f.Write(p[:k])
			w.n += int64(n)
		}
		return k, err
	}
	n, err := w.f.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *injWriter) frame(payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Write scans the store at snapshot snap and writes a checkpoint file
// into dir, crash-safely: temp file, fsync, atomic rename, dir fsync.
// The scan uses an MVCC read-only transaction, so it never blocks
// writers; snap must be a batch-boundary watermark (CheckpointVID) for
// the file to be a consistent replay base.
func Write(dir string, store *mvcc.Store, snap uint64, inj *crash.Injector) (Info, error) {
	start := time.Now()
	final := Path(dir, snap)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return Info{}, fmt.Errorf("checkpoint: create temp: %w", err)
	}
	w := &injWriter{f: f, inj: inj}
	totalRows, err := writeBody(w, store, snap)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return Info{}, err
	}
	if err := inj.Hit(crash.CkptSync); err != nil {
		f.Close()
		return Info{}, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return Info{}, err
	}
	if err := f.Close(); err != nil {
		return Info{}, err
	}
	if err := inj.Hit(crash.CkptRename); err != nil {
		return Info{}, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return Info{}, fmt.Errorf("checkpoint: rename: %w", err)
	}
	if err := inj.Hit(crash.CkptDirSync); err != nil {
		return Info{}, err
	}
	if err := syncDir(dir); err != nil {
		return Info{}, err
	}
	return Info{VID: snap, Path: final, Bytes: w.n, Rows: totalRows, Elapsed: time.Since(start)}, nil
}

func writeBody(w *injWriter, store *mvcc.Store, snap uint64) (int, error) {
	if _, err := w.Write([]byte(fileMagic)); err != nil {
		return 0, err
	}
	tables := store.Tables()
	var buf []byte
	buf = append(buf[:0], kindHeader)
	buf = binary.LittleEndian.AppendUint64(buf, snap)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tables)))
	if err := w.frame(buf); err != nil {
		return 0, err
	}

	ro := store.BeginROAt(snap)
	defer ro.Release()
	totalRows := 0
	for _, t := range tables {
		id := t.Schema.ID
		tableRows := uint64(0)
		chunk := make([]byte, 0, 1<<16)
		count := 0
		flush := func() error {
			if count == 0 {
				return nil
			}
			buf = append(buf[:0], kindRows)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(id))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
			buf = append(buf, chunk...)
			chunk = chunk[:0]
			count = 0
			return w.frame(buf)
		}
		var scanErr error
		t.ScanChains(func(c *mvcc.Chain) bool {
			rec := ro.ReadChain(c)
			if rec == nil {
				return true // not visible at snap (inserted later or deleted)
			}
			chunk = binary.LittleEndian.AppendUint64(chunk, rec.RowID)
			chunk = binary.LittleEndian.AppendUint32(chunk, uint32(len(rec.Data)))
			chunk = append(chunk, rec.Data...)
			count++
			tableRows++
			if count >= rowsPerFrame {
				scanErr = flush()
			}
			return scanErr == nil
		})
		if scanErr != nil {
			return 0, scanErr
		}
		if err := flush(); err != nil {
			return 0, err
		}
		buf = append(buf[:0], kindTable)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(id))
		buf = binary.LittleEndian.AppendUint64(buf, tableRows)
		if err := w.frame(buf); err != nil {
			return 0, err
		}
		totalRows += int(tableRows)
	}
	buf = append(buf[:0], kindTrailer)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(totalRows))
	if err := w.frame(buf); err != nil {
		return 0, err
	}
	return totalRows, nil
}

// read walks a checkpoint file, calling row for every stored row when
// non-nil, and validates the full frame structure: magic, per-frame
// CRCs, per-table counts against their table frames, and the trailer's
// grand total. Any deviation is ErrInvalid — a checkpoint is only
// usable when provably complete.
func read(path string, row func(table storage.TableID, rowID uint64, data []byte) error) (vid uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	hdr := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(r, hdr); err != nil || string(hdr) != fileMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrInvalid)
	}
	// left is the number of file bytes not yet read: a frame length is
	// checked against it before its body is allocated.
	left := st.Size() - int64(len(fileMagic))

	sawHeader, sawTrailer := false, false
	var tableCount uint32
	tablesClosed := uint32(0)
	rowsSeen := map[storage.TableID]uint64{}
	openTable := storage.TableID(0)
	hasOpen := false
	var grandTotal uint64

	var lenCRC [8]byte
	for {
		if _, err := io.ReadFull(r, lenCRC[:]); err != nil {
			if err == io.EOF {
				break
			}
			return 0, fmt.Errorf("%w: torn frame header", ErrInvalid)
		}
		left -= int64(len(lenCRC))
		n := binary.LittleEndian.Uint32(lenCRC[0:])
		want := binary.LittleEndian.Uint32(lenCRC[4:])
		if n == 0 || n > 256<<20 {
			return 0, fmt.Errorf("%w: absurd frame length", ErrInvalid)
		}
		if int64(n) > left {
			return 0, fmt.Errorf("%w: frame length %d exceeds the %d bytes left", ErrInvalid, n, left)
		}
		left -= int64(n)
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return 0, fmt.Errorf("%w: torn frame body", ErrInvalid)
		}
		if crc32.Checksum(body, crcTable) != want {
			return 0, fmt.Errorf("%w: frame CRC mismatch", ErrInvalid)
		}
		if sawTrailer {
			return 0, fmt.Errorf("%w: data after trailer", ErrInvalid)
		}
		switch body[0] {
		case kindHeader:
			if sawHeader || len(body) != 1+8+4 {
				return 0, fmt.Errorf("%w: bad header frame", ErrInvalid)
			}
			sawHeader = true
			vid = binary.LittleEndian.Uint64(body[1:])
			tableCount = binary.LittleEndian.Uint32(body[9:])
		case kindRows:
			if !sawHeader || len(body) < 1+2+4 {
				return 0, fmt.Errorf("%w: bad rows frame", ErrInvalid)
			}
			id := storage.TableID(binary.LittleEndian.Uint16(body[1:]))
			if hasOpen && id != openTable {
				return 0, fmt.Errorf("%w: interleaved tables", ErrInvalid)
			}
			openTable, hasOpen = id, true
			count := binary.LittleEndian.Uint32(body[3:])
			p := body[7:]
			for i := uint32(0); i < count; i++ {
				if len(p) < 12 {
					return 0, fmt.Errorf("%w: short row", ErrInvalid)
				}
				rowID := binary.LittleEndian.Uint64(p)
				dl := binary.LittleEndian.Uint32(p[8:])
				p = p[12:]
				if uint32(len(p)) < dl {
					return 0, fmt.Errorf("%w: short row data", ErrInvalid)
				}
				if row != nil {
					if err := row(id, rowID, p[:dl]); err != nil {
						return 0, err
					}
				}
				p = p[dl:]
				rowsSeen[id]++
			}
			if len(p) != 0 {
				return 0, fmt.Errorf("%w: trailing bytes in rows frame", ErrInvalid)
			}
		case kindTable:
			if !sawHeader || len(body) != 1+2+8 {
				return 0, fmt.Errorf("%w: bad table frame", ErrInvalid)
			}
			id := storage.TableID(binary.LittleEndian.Uint16(body[1:]))
			if hasOpen && id != openTable {
				return 0, fmt.Errorf("%w: table frame for wrong table", ErrInvalid)
			}
			wantRows := binary.LittleEndian.Uint64(body[3:])
			if rowsSeen[id] != wantRows {
				return 0, fmt.Errorf("%w: table %d has %d rows, frames carried %d", ErrInvalid, id, wantRows, rowsSeen[id])
			}
			grandTotal += wantRows
			tablesClosed++
			hasOpen = false
		case kindTrailer:
			if !sawHeader || len(body) != 1+8 {
				return 0, fmt.Errorf("%w: bad trailer frame", ErrInvalid)
			}
			if hasOpen {
				return 0, fmt.Errorf("%w: trailer before table close", ErrInvalid)
			}
			if tablesClosed != tableCount {
				return 0, fmt.Errorf("%w: %d tables closed, header said %d", ErrInvalid, tablesClosed, tableCount)
			}
			if binary.LittleEndian.Uint64(body[1:]) != grandTotal {
				return 0, fmt.Errorf("%w: trailer row total mismatch", ErrInvalid)
			}
			sawTrailer = true
		default:
			return 0, fmt.Errorf("%w: unknown frame kind %d", ErrInvalid, body[0])
		}
	}
	if !sawTrailer {
		return 0, fmt.Errorf("%w: missing trailer (truncated)", ErrInvalid)
	}
	return vid, nil
}

// Verify validates a checkpoint file without loading it and returns its
// VID. Recovery calls this before Restore so a failure cannot leave a
// half-loaded store.
func Verify(path string) (uint64, error) {
	return read(path, nil)
}

// Restore loads a verified checkpoint into an empty store: every row is
// installed at VID 0 under its original RowID (the OLAP replica's row
// identity), and the caller repositions the VID allocator at the
// returned checkpoint VID so WAL replay resumes the dense sequence.
func Restore(path string, store *mvcc.Store) (uint64, int, error) {
	rows := 0
	vid, err := read(path, func(id storage.TableID, rowID uint64, data []byte) error {
		t := store.Table(id)
		if t == nil {
			return fmt.Errorf("checkpoint: restore: unknown table %d (DDL mismatch)", id)
		}
		tup := append([]byte(nil), data...)
		if err := t.LoadRowWithID(rowID, tup); err != nil {
			return fmt.Errorf("checkpoint: restore table %d row %d: %w", id, rowID, err)
		}
		rows++
		return nil
	})
	if err != nil {
		return 0, rows, err
	}
	return vid, rows, nil
}

// syncDir fsyncs a directory so entry operations inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
