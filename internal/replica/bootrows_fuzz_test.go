package replica

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"batchdb/internal/mvcc"
	"batchdb/internal/network"
	"batchdb/internal/olap"
	"batchdb/internal/storage"
)

// FuzzBootRows holds the replica's bootstrap-row decoder to what a
// resyncing replica needs from bytes off the network:
// Client.handleBootRows never panics, it refuses a message that names
// one key twice, and a message it accepts stages exactly the (key,
// tuple) rows it encodes, which the installed reload then serves by key.
//
//	go test -run '^$' -fuzz '^FuzzBootRows$' -fuzztime 15s ./internal/replica/
func FuzzBootRows(f *testing.F) {
	schema := storage.NewSchema(1, "kv", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
	}, []int{0})
	frames := shippedBootRows(f, schema)
	for _, frame := range frames {
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	f.Add([]byte{1, 0, 0, 0, 0, 0}) // no rows
	dup := append([]byte(nil), frames[0]...)
	binary.LittleEndian.PutUint32(dup[2:], 6)
	f.Add(append(dup, frames[0][6:]...))                                // every row twice
	f.Add([]byte{9, 0, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // unknown table
	f.Fuzz(func(t *testing.T, msg []byte) {
		rep := olap.NewReplica(2)
		tbl := rep.CreateTable(schema, 16)
		c := NewResyncClient(nil, rep)
		if err := c.handleBootRows(msg); err != nil {
			return
		}
		// Accepted: the header names the table and the row count, and the
		// rows fill the rest of the message exactly.
		n := int(binary.LittleEndian.Uint32(msg[2:]))
		want := map[uint64][]byte{}
		for i, pos := 0, 6; i < n; i++ {
			l := int(binary.LittleEndian.Uint32(msg[pos+8:]))
			want[binary.LittleEndian.Uint64(msg[pos:])] = msg[pos+12 : pos+12+l]
			pos += 12 + l
		}
		if len(want) < n {
			t.Fatalf("accepted %d rows under %d keys", n, len(want))
		}
		rep.InstallReload(c.staged, 1)
		if _, err := rep.ApplyPending(1); err != nil {
			t.Fatalf("installing the accepted rows: %v", err)
		}
		if tbl.Live() != n {
			t.Fatalf("the reload serves %d rows, the message encodes %d", tbl.Live(), n)
		}
		for key, tup := range want {
			part, slot, ok := tbl.FindPK(key)
			if !ok {
				t.Fatalf("key %d is not served; the message encodes %x", key, tup)
			}
			if got := tbl.Partitions[part].Tuple(slot); !bytes.Equal(got, tup) {
				t.Fatalf("key %d serves %x; the message encodes %x", key, got, tup)
			}
		}
	})
}

// TestBootRowsRejectDuplicateAcrossChunks: a resync snapshot that ships
// one key in two chunks fails the connection at the second chunk; the
// replica keeps serving its old data, and its apply rounds keep working.
func TestBootRowsRejectDuplicateAcrossChunks(t *testing.T) {
	schema := storage.NewSchema(1, "kv", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
	}, []int{0})
	frames := shippedBootRows(t, schema)
	rep := olap.NewReplica(2)
	tbl := rep.CreateTable(schema, 16)
	if err := NewClient(nil, rep).handleBootRows(frames[0]); err != nil {
		t.Fatal(err)
	}
	c := NewResyncClient(nil, rep)
	if err := c.handleBootRows(frames[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.handleBootRows(frames[0]); err == nil {
		t.Fatal("a resync snapshot shipping one key twice was accepted")
	}
	if _, err := rep.ApplyPending(1); err != nil {
		t.Fatalf("apply round after the refused resync: %v", err)
	}
	if tbl.Live() != 3 {
		t.Fatalf("replica serves %d rows, want its 3 old ones", tbl.Live())
	}
}

// shippedBootRows returns the bootRows payloads ShipSnapshot sends for
// a small table — keys 0 to 4, three rows a chunk — over an in-memory
// connection.
func shippedBootRows(tb testing.TB, schema *storage.Schema) [][]byte {
	tb.Helper()
	store := mvcc.NewStore()
	tbl := store.CreateTable(schema, func(tup []byte) uint64 { return uint64(schema.GetInt64(tup, 0)) }, 16)
	for k := int64(0); k < 5; k++ {
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, k)
		schema.PutInt64(tup, 1, 10*k)
		if err := tbl.LoadRow(tup); err != nil {
			tb.Fatal(err)
		}
	}
	a, b := net.Pipe()
	src, dst := network.NewConnOpts(a, nil, network.Options{}), network.NewConnOpts(b, nil, network.Options{})
	defer src.Close()
	defer dst.Close()
	shipped := make(chan error, 1)
	go func() {
		_, err := ShipSnapshot(src, store, []storage.TableID{1}, 3)
		shipped <- err
	}()
	var frames [][]byte
	for {
		mt, payload, release, err := dst.Recv()
		if err != nil {
			tb.Fatal(err)
		}
		if mt == msgBootDone {
			break
		}
		frames = append(frames, append([]byte(nil), payload...))
		if release != nil {
			release()
		}
	}
	if err := <-shipped; err != nil {
		tb.Fatal(err)
	}
	if len(frames) != 2 {
		tb.Fatalf("ShipSnapshot sent %d row chunks, want 2", len(frames))
	}
	return frames
}
