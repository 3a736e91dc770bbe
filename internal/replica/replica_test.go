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

// testCluster wires a primary engine and a remote OLAP replica over a
// real TCP loopback connection.
type testCluster struct {
	engine  *oltp.Engine
	tbl     *mvcc.Table
	schema  *storage.Schema
	replica *olap.Replica
	client  *Client
	pub     *Publisher
}

func newCluster(t *testing.T) *testCluster {
	t.Helper()
	schema := storage.NewSchema(1, "kv", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
	}, []int{0})

	// Primary node.
	store := mvcc.NewStore()
	tbl := store.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 1024)
	engine, err := oltp.New(store, oltp.Config{Workers: 2, PushPeriod: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	engine.Register("put", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		k := int64(binary.LittleEndian.Uint64(args))
		v := int64(binary.LittleEndian.Uint64(args[8:]))
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, k)
		schema.PutInt64(tup, 1, v)
		err := tx.Insert(tbl, tup)
		return nil, err
	})
	engine.Register("add", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		k := int64(binary.LittleEndian.Uint64(args))
		d := int64(binary.LittleEndian.Uint64(args[8:]))
		return nil, tx.Update(tbl, uint64(k), []int{1}, func(tup []byte) {
			schema.PutInt64(tup, 1, schema.GetInt64(tup, 1)+d)
		})
	})

	// Replica node.
	rep := olap.NewReplica(2)
	rep.CreateTable(schema, 1024)

	// Wire them over loopback TCP.
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

	pub := NewPublisher(srvConn, engine)
	engine.SetSink(pub)
	client := NewClient(cliConn, rep)
	go pub.Serve()
	go client.Serve()

	t.Cleanup(func() {
		engine.Close()
		cliConn.Close()
		srvConn.Close()
	})
	return &testCluster{engine: engine, tbl: tbl, schema: schema, replica: rep, client: client, pub: pub}
}

func args2(k, v int64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, uint64(k))
	binary.LittleEndian.PutUint64(b[8:], uint64(v))
	return b
}

func TestRemoteReplicaEndToEnd(t *testing.T) {
	c := newCluster(t)
	c.engine.Start()

	for i := int64(1); i <= 100; i++ {
		if r := c.engine.Exec("put", args2(i, i*10)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for i := int64(1); i <= 50; i++ {
		if r := c.engine.Exec("add", args2(i, 1)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	// Sync through the remote path, then apply and verify.
	covered := c.client.SyncUpdates()
	if covered != 150 {
		t.Fatalf("covered = %d, want 150", covered)
	}
	if _, err := c.replica.ApplyPending(covered); err != nil {
		t.Fatal(err)
	}
	tbl := c.replica.Table(1)
	if tbl.Live() != 100 {
		t.Fatalf("replica live = %d, want 100", tbl.Live())
	}
	sum := int64(0)
	for _, p := range tbl.Partitions {
		eachLive(p, func(tup []byte) {
			sum += c.schema.GetInt64(tup, 1)
		})
	}
	want := int64(0)
	for i := int64(1); i <= 100; i++ {
		want += i * 10
	}
	want += 50
	if sum != want {
		t.Fatalf("replica sum = %d, want %d", sum, want)
	}
}

func TestBootstrapThenLiveUpdates(t *testing.T) {
	c := newCluster(t)
	// Load data before the engine starts (initial load path).
	store := c.engine.Store()
	tx := store.Begin()
	for i := int64(1); i <= 500; i++ {
		tup := c.schema.NewTuple()
		c.schema.PutInt64(tup, 0, i)
		c.schema.PutInt64(tup, 1, i)
		if err := tx.Insert(c.tbl, tup); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Ship the snapshot, then start the engine and apply live updates.
	// 128-row chunks, not Serve's 4096: the 500 rows must cross several
	// bootstrap chunks.
	snapVID, err := ShipSnapshot(c.pub.conn, store, []storage.TableID{1}, 128)
	if err != nil {
		t.Fatal(err)
	}
	bootVID, err := c.client.WaitBootstrap()
	if err != nil {
		t.Fatal(err)
	}
	if bootVID != snapVID {
		t.Fatalf("bootstrap VID %d != shipped %d", bootVID, snapVID)
	}
	if c.replica.Table(1).Live() != 500 {
		t.Fatalf("bootstrapped %d rows", c.replica.Table(1).Live())
	}

	c.engine.Start()
	for i := int64(1); i <= 100; i++ {
		if r := c.engine.Exec("add", args2(i, 1000)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	covered := c.client.SyncUpdates()
	if _, err := c.replica.ApplyPending(covered); err != nil {
		t.Fatal(err)
	}
	// Spot-check values: rows 1..100 were incremented.
	tbl := c.replica.Table(1)
	sum := int64(0)
	for _, p := range tbl.Partitions {
		eachLive(p, func(tup []byte) {
			sum += c.schema.GetInt64(tup, 1)
		})
	}
	want := int64(0)
	for i := int64(1); i <= 500; i++ {
		want += i
	}
	want += 100 * 1000
	if sum != want {
		t.Fatalf("sum after live updates = %d, want %d", sum, want)
	}
}

func TestRemoteSchedulerIntegration(t *testing.T) {
	c := newCluster(t)
	c.engine.Start()
	for i := int64(1); i <= 20; i++ {
		if r := c.engine.Exec("put", args2(i, 1)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	// Scheduler over the remote primary: each query batch syncs over
	// the network and sees fresh data.
	run := func(qs []int, snap uint64) []int {
		out := make([]int, len(qs))
		for i := range qs {
			out[i] = c.replica.Table(1).Live()
		}
		return out
	}
	sched := olap.NewScheduler(c.replica, c.client, run)
	sched.Start()
	defer sched.Close()

	got, err := sched.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Fatalf("remote-scheduled query saw %d rows, want 20", got)
	}
	for i := int64(21); i <= 30; i++ {
		c.engine.Exec("put", args2(i, 1))
	}
	got, _ = sched.Query(0)
	if got != 30 {
		t.Fatalf("second query saw %d rows, want 30", got)
	}
}

func TestMultiSinkFanOut(t *testing.T) {
	// Two local replicas fed by one engine, each attached as a sink.
	schema := storage.NewSchema(1, "kv", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
	}, []int{0})
	store := mvcc.NewStore()
	tbl := store.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 64)
	engine, err := oltp.New(store, oltp.Config{Workers: 1, PushPeriod: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	engine.Register("put", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		k := int64(binary.LittleEndian.Uint64(args))
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, k)
		schema.PutInt64(tup, 1, k)
		err := tx.Insert(tbl, tup)
		return nil, err
	})
	r1, r2 := olap.NewReplica(1), olap.NewReplica(1)
	r1.CreateTable(schema, 64)
	r2.CreateTable(schema, 64)
	engine.AddSink(r1)
	engine.AddSink(r2)
	engine.Start()
	defer engine.Close()

	for i := int64(1); i <= 10; i++ {
		engine.Exec("put", args2(i, i))
	}
	covered := engine.SyncUpdates()
	for _, r := range []*olap.Replica{r1, r2} {
		if _, err := r.ApplyPending(covered); err != nil {
			t.Fatal(err)
		}
		if r.Table(1).Live() != 10 {
			t.Fatalf("fan-out replica has %d rows", r.Table(1).Live())
		}
	}
}

// eachLive calls fn with every live tuple of p, a vector of slots at a
// time (Partition.LiveSlots).
func eachLive(p *olap.Partition, fn func(tup []byte)) {
	slots := make([]int32, 64)
	for next := 0; next < p.Slots(); {
		var n int
		n, next = p.LiveSlots(p.Slots(), next, slots)
		for _, s := range slots[:n] {
			fn(p.Tuple(s))
		}
	}
}
