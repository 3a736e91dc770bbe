package replica

import (
	"encoding/binary"
	"testing"
	"time"

	"batchdb/internal/mvcc"
	"batchdb/internal/network"
	"batchdb/internal/olap"
	"batchdb/internal/oltp"
	"batchdb/internal/storage"
)

// Regression test: a sync request whose answering push exceeds the
// connection's 1 MiB buffers must not deadlock. The primary's reader
// answers the sync inline, so it is busy in the engine while the push
// is written; the push must still reach the replica and the reply must
// follow it.
func TestSyncWithOversizedPush(t *testing.T) {
	schema := storage.NewSchema(1, "blobs", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "payload", Type: storage.String, Size: 2048},
	}, []int{0})
	store := mvcc.NewStore()
	tbl := store.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 4096)
	engine, err := oltp.New(store, oltp.Config{Workers: 2, PushPeriod: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	engine.Register("put", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, int64(binary.LittleEndian.Uint64(args)))
		schema.PutString(tup, 1, "x")
		err := tx.Insert(tbl, tup)
		return nil, err
	})

	rep := olap.NewReplica(2)
	rep.CreateTable(schema, 4096)

	l, err := network.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	connCh := make(chan *network.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			connCh <- c
		}
	}()
	cliConn, err := network.Dial(l.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srvConn := <-connCh
	l.Close()
	defer cliConn.Close()
	defer srvConn.Close()

	pub := NewPublisher(srvConn, engine)
	engine.SetSink(pub)
	client := NewClient(cliConn, rep)
	go pub.Serve()
	go client.Serve()
	engine.Start()
	defer engine.Close()

	// Accumulate well over 1 MiB before any push: 1000 inserts x ~2 KB
	// tuples ~ 2 MB of update log.
	args := make([]byte, 8)
	for i := uint64(1); i <= 1000; i++ {
		binary.LittleEndian.PutUint64(args, i)
		if r := engine.Exec("put", args); r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	done := make(chan uint64, 1)
	go func() { done <- client.SyncUpdates() }()
	select {
	case covered := <-done:
		if covered != 1000 {
			t.Fatalf("covered = %d, want 1000", covered)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("sync with oversized push deadlocked")
	}
	if _, err := rep.ApplyPending(1000); err != nil {
		t.Fatal(err)
	}
	if rep.Table(1).Live() != 1000 {
		t.Fatalf("replica rows = %d", rep.Table(1).Live())
	}
	if n := srvConn.Stats().BytesSent.Load(); n <= 1<<20 {
		t.Fatalf("primary sent %d bytes; the push no longer exceeds 1 MiB", n)
	}
}
