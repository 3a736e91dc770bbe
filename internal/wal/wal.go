// Package wal implements BatchDB's durability mechanism: logical command
// logging with group commit (paper §4 "Logging").
//
// Like VoltDB [38], the log records the *command* (stored-procedure name
// and arguments), not physical changes. Because the engine runs under
// snapshot isolation, each record also carries the transaction's read
// snapshot VID and commit VID so that recovery can replay commands
// against the same snapshots and reproduce the exact same state. The
// OLTP dispatcher appends all records of a batch and then issues a
// single Commit (write + optional fsync), amortizing I/O latency across
// the batch — the group commit of [12].
//
// The log is a directory of segment files (Manager, segment.go), each
// the magic header followed by CRC-framed records. Segments rotate at a
// size threshold and are truncated once a checkpoint supersedes them.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Record is one logged command.
type Record struct {
	// CommitVID is the VID assigned at commit.
	CommitVID uint64
	// ReadVID is the snapshot the transaction read at; replay must use
	// the same snapshot for deterministic re-execution.
	ReadVID uint64
	// Proc names the stored procedure.
	Proc string
	// Args is the procedure's serialized argument record.
	Args []byte
}

const magic = "BDBWAL01"

var (
	// ErrCorrupt reports a record that fails its checksum; replay stops
	// at the last intact prefix, mirroring torn-tail handling.
	ErrCorrupt = errors.New("wal: corrupt record")
	crcTable   = crc32.MakeTable(crc32.Castagnoli)
)

// maxFrame bounds one record body; a larger announced length is
// corruption, not a record.
const maxFrame = 64 << 20

// encodeBody appends r's body (the checksummed payload, without the
// frame header) to dst.
func encodeBody(dst []byte, r Record) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.CommitVID)
	dst = binary.LittleEndian.AppendUint64(dst, r.ReadVID)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Proc)))
	dst = append(dst, r.Proc...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Args)))
	dst = append(dst, r.Args...)
	return dst
}

// appendFrame appends [len u32][crc u32][body] to dst.
func appendFrame(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, crcTable))
	return append(dst, body...)
}

// walkFile reads one segment file and calls fn (if non-nil) for every
// intact record in append order. It returns the byte length of the
// intact prefix: the header plus every whole frame fn was called for.
//
// final tolerates a torn tail — a crash mid-append — as a clean end: a
// short header (prefix 0), a short frame header or body, or a checksum
// mismatch on the last frame. Non-final segments were sealed by a
// rotation and must be fully intact, so there any of these is
// ErrCorrupt, as is a bad header or a checksum mismatch with bytes
// after it in any segment. A frame length is checked against the bytes
// left in the file before its body is allocated.
func walkFile(path string, final bool, fn func(Record) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: open: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: stat: %w", err)
	}
	size := st.Size()
	// torn ends the walk at the last intact frame: cleanly in the final
	// segment, as corruption anywhere else.
	torn := func(valid int64) (int64, error) {
		if final {
			return valid, nil
		}
		return 0, ErrCorrupt
	}
	r := bufio.NewReaderSize(f, 1<<20)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		// Shorter than the header: a crash before the header reached
		// disk. No record was ever acknowledged from this file.
		if final {
			return 0, nil
		}
		return 0, fmt.Errorf("wal: bad header: %w", ErrCorrupt)
	}
	if string(hdr) != magic {
		return 0, fmt.Errorf("wal: bad header: %w", ErrCorrupt)
	}
	valid := int64(len(magic))
	var lenCRC [8]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, lenCRC[:]); err != nil {
			if err == io.EOF {
				return valid, nil // clean end
			}
			return torn(valid) // torn frame header
		}
		n := binary.LittleEndian.Uint32(lenCRC[0:])
		want := binary.LittleEndian.Uint32(lenCRC[4:])
		if n > maxFrame {
			return 0, ErrCorrupt
		}
		end := valid + 8 + int64(n)
		if end > size {
			return torn(valid) // torn body
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return torn(valid)
		}
		if crc32.Checksum(body, crcTable) != want {
			// A bad last frame is a torn tail; one with bytes after it
			// is rot in the middle of the file.
			if end == size {
				return torn(valid)
			}
			return 0, ErrCorrupt
		}
		rec, err := decode(body)
		if err != nil {
			return 0, err
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return 0, err
			}
		}
		valid = end
	}
}

func decode(b []byte) (Record, error) {
	var r Record
	if len(b) < 22 {
		return r, ErrCorrupt
	}
	r.CommitVID = binary.LittleEndian.Uint64(b[0:])
	r.ReadVID = binary.LittleEndian.Uint64(b[8:])
	pn := int(binary.LittleEndian.Uint16(b[16:]))
	if len(b) < 18+pn+4 {
		return r, ErrCorrupt
	}
	r.Proc = string(b[18 : 18+pn])
	an := int(binary.LittleEndian.Uint32(b[18+pn:]))
	if len(b) != 18+pn+4+an {
		return r, ErrCorrupt
	}
	r.Args = append([]byte(nil), b[18+pn+4:]...)
	return r, nil
}

// syncDir fsyncs a directory so that entry operations (create, rename,
// unlink) inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
