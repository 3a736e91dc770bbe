package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALDecode holds decode — which reads every record body replay and
// OpenDir meet on disk — to two rules: it never panics, and whatever
// it accepts equals encodeBody of the record it returned.
func FuzzWALDecode(f *testing.F) {
	for _, r := range []Record{
		{},
		{CommitVID: 1, ReadVID: 0, Proc: "transfer", Args: []byte{1, 2, 3, 4}},
		{CommitVID: 1 << 40, ReadVID: 1<<40 - 1, Proc: "batchdb.ingest", Args: bytes.Repeat([]byte{9}, 64)},
	} {
		f.Add(encodeBody(nil, r))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := decode(body)
		if err != nil {
			return
		}
		if again := encodeBody(nil, r); !bytes.Equal(again, body) {
			t.Fatalf("decode accepted %x, which encodes back as %x", body, again)
		}
	})
}

// FuzzWALReplay makes arbitrary bytes after the magic header a
// directory's only segment and holds ReplayDir to three rules: it never
// panics, every error it returns wraps ErrCorrupt, and the records it
// hands over re-encode to a prefix of the input.
func FuzzWALReplay(f *testing.F) {
	var frames []byte
	for _, r := range []Record{
		{CommitVID: 1, Proc: "transfer", Args: []byte{1, 2, 3, 4}},
		{CommitVID: 0, ReadVID: 7, Proc: "p"},
		{CommitVID: 2, ReadVID: 1, Proc: "batchdb.ingest", Args: bytes.Repeat([]byte{9}, 64)},
	} {
		frames = appendFrame(frames, encodeBody(nil, r))
	}
	f.Add([]byte{})
	f.Add(frames)
	f.Add(frames[:len(frames)-3])
	f.Add(binary.LittleEndian.AppendUint32(append([]byte(nil), frames...), 60<<20))
	dir := f.TempDir()
	seg := filepath.Join(dir, segName(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(seg, append([]byte(magic), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		rest := data
		_, err := ReplayDir(dir, 0, func(r Record) error {
			// Replay from the start hands over only CommitVID > 0: step
			// over the frames of VID-0 records it skipped.
			for len(rest) >= 8 {
				n := uint64(binary.LittleEndian.Uint32(rest))
				if n+8 > uint64(len(rest)) {
					break
				}
				if skipped, err := decode(rest[8 : 8+n]); err != nil || skipped.CommitVID != 0 {
					break
				}
				rest = rest[8+n:]
			}
			frame := appendFrame(nil, encodeBody(nil, r))
			if !bytes.HasPrefix(rest, frame) {
				t.Fatalf("replayed %+v, whose frame %x is not next in the input", r, frame)
			}
			rest = rest[len(frame):]
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReplayDir error %v does not wrap ErrCorrupt", err)
		}
	})
}
