package proplog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"batchdb/internal/storage"
)

type chunkRow struct {
	table storage.TableID
	key   uint64
	tup   []byte
}

func decodeAll(t *testing.T, chunk []byte) []chunkRow {
	t.Helper()
	var rows []chunkRow
	if err := DecodeRowChunk(chunk, func(table storage.TableID, key uint64, tup []byte) error {
		rows = append(rows, chunkRow{table, key, append([]byte(nil), tup...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestRowChunkRoundTrip cuts a stream of rows into chunks of at most
// three and decodes every chunk back to its rows, in order; the
// chunker's reused buffer must not leak one chunk's rows into the next.
func TestRowChunkRoundTrip(t *testing.T) {
	var want []chunkRow
	for k := uint64(0); k < 8; k++ {
		want = append(want, chunkRow{7, k * 1000, bytes.Repeat([]byte{byte(k)}, int(k%3))})
	}
	var got []chunkRow
	var sizes []int
	w := NewRowChunker(7, 3, func(chunk []byte) error {
		rows := decodeAll(t, chunk)
		sizes = append(sizes, len(rows))
		got = append(got, rows...)
		return nil
	})
	for _, r := range want {
		if !w.Add(r.key, r.tup) {
			t.Fatal("Add failed without an emit error")
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Rows() != len(want) {
		t.Fatalf("Rows() = %d, want %d", w.Rows(), len(want))
	}
	if fmt.Sprint(sizes) != "[3 3 2]" {
		t.Fatalf("chunk sizes %v, want [3 3 2]", sizes)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
}

// TestRowChunkRejectsMalformed: a chunk cut short anywhere, or with a
// byte after its last row, is ErrBadRowChunk; an error of fn stops the
// walk and is returned as it is.
func TestRowChunkRejectsMalformed(t *testing.T) {
	var chunk []byte
	w := NewRowChunker(1, 2, func(c []byte) error { chunk = append([]byte(nil), c...); return nil })
	w.Add(1, []byte("abc"))
	w.Add(2, []byte("de"))
	noop := func(storage.TableID, uint64, []byte) error { return nil }
	for n := 0; n < len(chunk); n++ {
		if err := DecodeRowChunk(chunk[:n], noop); !errors.Is(err, ErrBadRowChunk) {
			t.Fatalf("chunk cut to %d of %d bytes: %v", n, len(chunk), err)
		}
	}
	if err := DecodeRowChunk(append(chunk, 0), noop); !errors.Is(err, ErrBadRowChunk) {
		t.Fatalf("trailing byte: %v", err)
	}
	stop := errors.New("stop")
	calls := 0
	err := DecodeRowChunk(chunk, func(storage.TableID, uint64, []byte) error { calls++; return stop })
	if err != stop || calls != 1 {
		t.Fatalf("fn error: %v after %d calls", err, calls)
	}
	emitErr := errors.New("emit")
	emits := 0
	w = NewRowChunker(1, 1, func([]byte) error { emits++; return emitErr })
	if w.Add(1, nil) || w.Add(2, nil) {
		t.Fatal("Add reported success after a failed emit")
	}
	if err := w.Flush(); err != emitErr || emits != 1 {
		t.Fatalf("Flush after a failed emit: %v, %d emits", err, emits)
	}
}
