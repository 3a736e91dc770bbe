package proplog

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"batchdb/internal/storage"
)

func TestBufferAccumulatesPerTable(t *testing.T) {
	b := NewBuffer(3)
	b.Add(1, Entry{VID: 1, Kind: Insert, Key: 10, Size: 2, Data: []byte{1, 2}})
	b.Add(2, Entry{VID: 1, Kind: Delete, Key: 20})
	b.Add(1, Entry{VID: 2, Kind: Update, Key: 10, Offset: 4, Size: 1, Data: []byte{9}})
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	batch := b.Take()
	if batch.Worker != 3 || len(batch.Tables) != 2 {
		t.Fatalf("batch = %+v", batch)
	}
	if n := numEntries(&batch); n != 3 {
		t.Fatalf("batch carries %d entries", n)
	}
	if len(batch.Tables[0].Entries) != 2 || batch.Tables[0].Table != 1 {
		t.Fatalf("table grouping wrong: %+v", batch.Tables)
	}
	// Buffer is reset.
	if b.Len() != 0 {
		t.Fatalf("buffer not reset: %d", b.Len())
	}
	empty := b.Take()
	if numEntries(&empty) != 0 {
		t.Fatal("fresh buffer not empty")
	}
}

// numEntries counts all entries in the batch.
func numEntries(b *Batch) int {
	n := 0
	for i := range b.Tables {
		n += len(b.Tables[i].Entries)
	}
	return n
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := NewBuffer(7)
	b.Add(4, Entry{VID: 100, Kind: Insert, Key: 1, Size: 3, Data: []byte{1, 2, 3}})
	b.Add(4, Entry{VID: 101, Kind: Update, Key: 1, Offset: 8, Size: 2, Data: []byte{5, 6}})
	b.Add(4, Entry{VID: 102, Kind: Delete, Key: 1})
	b.Add(9, Entry{VID: 100, Kind: Insert, Key: 2, Size: 1, Data: []byte{7}})
	batch := b.Take()

	enc := AppendEncode(nil, &batch)
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Worker != 7 || len(got.Tables) != 2 {
		t.Fatalf("decoded = %+v", got)
	}
	for ti := range batch.Tables {
		if got.Tables[ti].Table != batch.Tables[ti].Table {
			t.Fatalf("table %d id mismatch", ti)
		}
		for i := range batch.Tables[ti].Entries {
			w, g := batch.Tables[ti].Entries[i], got.Tables[ti].Entries[i]
			if w.VID != g.VID || w.Kind != g.Kind || w.Key != g.Key ||
				w.Offset != g.Offset || w.Size != g.Size || !bytes.Equal(w.Data, g.Data) {
				t.Fatalf("entry %d/%d: %+v != %+v", ti, i, g, w)
			}
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	b := NewBuffer(0)
	b.Add(1, Entry{VID: 1, Kind: Insert, Key: 1, Size: 8, Data: make([]byte, 8)})
	batch := b.Take()
	enc := AppendEncode(nil, &batch)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("Decode accepted truncation at %d/%d bytes", cut, len(enc))
		}
	}
}

// TestDecodeMalformed feeds Decode the three shapes of a well-framed
// batch that AppendEncode never produces. Each reached the replica's
// apply round as an error, which it treats as divergence and panics on.
func TestDecodeMalformed(t *testing.T) {
	encode := func(entries ...Entry) []byte {
		return AppendEncode(nil, &Batch{Worker: 1, Tables: []TableBatch{{Table: 3, Entries: entries}}})
	}
	ins := Entry{VID: 5, Kind: Insert, Key: 9, Size: 2, Data: []byte{1, 2}}
	for _, tc := range []struct {
		name string
		buf  []byte
		want error
	}{
		{"kind above Delete", encode(ins, Entry{VID: 6, Kind: Delete + 1, Key: 9}), ErrMalformed},
		{"kind 255", encode(Entry{VID: 6, Kind: 255, Key: 9, Size: 1, Data: []byte{7}}), ErrMalformed},
		{"delete with data", encode(ins, Entry{VID: 6, Kind: Delete, Key: 9, Size: 1, Data: []byte{7}}), ErrMalformed},
		{"one trailing byte", append(encode(ins), 0), ErrMalformed},
		{"a second batch after the first", append(encode(ins), encode(ins)...), ErrMalformed},
		{"cut mid-entry", encode(ins)[:20], ErrTruncated},
	} {
		if _, err := Decode(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: Decode error %v, want %v", tc.name, err, tc.want)
		}
	}
}

// Property: arbitrary batches survive the wire round trip.
func TestRoundTripProperty(t *testing.T) {
	f := func(entries []Entry, tables []uint8, worker uint16) bool {
		b := NewBuffer(int(worker))
		for i, e := range entries {
			if e.Kind %= Delete + 1; e.Kind == Delete {
				e.Data = nil
			}
			e.Size = uint32(len(e.Data))
			if len(tables) > 0 {
				b.Add(storage.TableID(2+uint16(tables[i%len(tables)])), e)
			} else {
				b.Add(1, e)
			}
		}
		batch := b.Take()
		want := numEntries(&batch)
		enc := AppendEncode(nil, &batch)
		got, err := Decode(enc)
		if err != nil {
			return false
		}
		if numEntries(&got) != want || got.Worker != int(worker) {
			return false
		}
		for ti := range batch.Tables {
			for i := range batch.Tables[ti].Entries {
				w, g := batch.Tables[ti].Entries[i], got.Tables[ti].Entries[i]
				if w.VID != g.VID || w.Kind != g.Kind || w.Key != g.Key ||
					w.Offset != g.Offset || !bytes.Equal(w.Data, g.Data) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if Insert.String() != "I" || Update.String() != "U" || Delete.String() != "D" {
		t.Fatal("Kind.String wrong")
	}
}
