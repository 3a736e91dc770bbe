package replica

import (
	"testing"
	"time"

	"batchdb/internal/mvcc"
	"batchdb/internal/network"
	"batchdb/internal/olap"
	"batchdb/internal/oltp"
	"batchdb/internal/storage"
)

// servedCluster is a primary serving replicas through Serve, so a
// Supervisor can kill its connection, reconnect, and resync against it,
// exactly like a remote replica node against a live primary.
type servedCluster struct {
	engine *oltp.Engine
	schema *storage.Schema
	addr   string
}

// newPutEngine builds a started-but-unserved primary: a kv table and a
// "put" procedure over a fresh MVCC store.
func newPutEngine(t *testing.T) (*oltp.Engine, *storage.Schema) {
	t.Helper()
	schema := storage.NewSchema(1, "kv", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
	}, []int{0})
	store := mvcc.NewStore()
	tbl := store.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 1024)
	engine, err := oltp.New(store, oltp.Config{Workers: 2, PushPeriod: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	engine.Register("put", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, int64(leU64(args)))
		schema.PutInt64(tup, 1, int64(leU64(args[8:])))
		err := tx.Insert(tbl, tup)
		return nil, err
	})
	return engine, schema
}

func newServedCluster(t *testing.T) *servedCluster {
	t.Helper()
	engine, schema := newPutEngine(t)
	l, err := network.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, engine, []storage.TableID{1})
	engine.Start()
	t.Cleanup(func() {
		srv.Close()
		engine.Close()
	})
	return &servedCluster{engine: engine, schema: schema, addr: srv.Addr()}
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (sc *servedCluster) put(t *testing.T, from, to int64) {
	t.Helper()
	for i := from; i <= to; i++ {
		if r := sc.engine.Exec("put", args2(i, i)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

func newTestSupervisor(sc *servedCluster) (*Supervisor, *olap.Replica) {
	rep := olap.NewReplica(2)
	rep.CreateTable(sc.schema, 1024)
	sup := NewSupervisor(sc.addr, rep, SupervisorConfig{
		Retry:          network.RetryPolicy{Attempts: 20, BaseDelay: 5 * time.Millisecond},
		ReconnectPause: 10 * time.Millisecond,
	})
	sup.Start()
	return sup, rep
}

// converge drives sync + apply rounds (what the OLAP scheduler does
// between query batches) until the replica's applied VID reaches the
// primary's committed watermark.
func converge(t *testing.T, sup *Supervisor, rep *olap.Replica, sc *servedCluster) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		covered := sup.SyncUpdates()
		if _, err := rep.ApplyPending(covered); err != nil {
			t.Fatal(err)
		}
		if rep.AppliedVID() >= sc.engine.LatestVID() && sup.Status().Connected {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica did not converge: applied %d, primary %d, connected %v",
				rep.AppliedVID(), sc.engine.LatestVID(), sup.Status().Connected)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A replica whose connection is killed must reconnect, resync from a
// fresh snapshot (VID floor raised, nothing lost or double-applied),
// and catch up to the primary's commit watermark.
func TestSupervisorKillReconnectResync(t *testing.T) {
	sc := newServedCluster(t)
	sup, rep := newTestSupervisor(sc)
	defer sup.Close()
	if _, err := sup.WaitBootstrap(); err != nil {
		t.Fatal(err)
	}
	sc.put(t, 1, 50)
	converge(t, sup, rep, sc)
	if got := rep.Table(1).Live(); got != 50 {
		t.Fatalf("pre-kill rows = %d, want 50", got)
	}

	sup.KillConnection()
	sc.put(t, 51, 100) // committed while the replica is disconnected
	converge(t, sup, rep, sc)

	if got := rep.Table(1).Live(); got != 100 {
		t.Fatalf("post-reconnect rows = %d, want 100", got)
	}
	st := sup.Status()
	if st.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1", st.Reconnects)
	}
	if st.Resyncs < 1 {
		t.Fatalf("resyncs = %d, want >= 1", st.Resyncs)
	}
	if !st.Connected {
		t.Fatal("not connected after recovery")
	}
	if st.Degraded <= 0 {
		t.Fatal("degraded time not accounted")
	}
}

// An injected sever mid-batch (after N received frames) must trigger
// the same reconnect + VID-floor resync, and the injected error must be
// identifiable.
func TestSupervisorSeverMidBatch(t *testing.T) {
	sc := newServedCluster(t)
	sup, rep := newTestSupervisor(sc)
	defer sup.Close()
	if _, err := sup.WaitBootstrap(); err != nil {
		t.Fatal(err)
	}
	sc.put(t, 1, 20)
	converge(t, sup, rep, sc)

	// Sever on the next frame the replica receives: the cut lands on
	// the update push carrying the new rows, mid-stream.
	sup.InjectFault(network.SeverAfter(network.FaultRecv, 1))
	sc.put(t, 21, 120)
	converge(t, sup, rep, sc)

	if got := rep.Table(1).Live(); got != 120 {
		t.Fatalf("rows after severed batch = %d, want 120", got)
	}
	st := sup.Status()
	if st.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1", st.Reconnects)
	}
	if !network.IsInjectedFault(st.LastError) {
		t.Fatalf("LastError = %v, want injected fault", st.LastError)
	}
}

// The first connection is strict: an unreachable primary fails
// WaitBootstrap instead of retrying forever.
func TestSupervisorBootstrapFailFast(t *testing.T) {
	rep := olap.NewReplica(1)
	sup := NewSupervisor("127.0.0.1:1", rep, SupervisorConfig{
		Retry: network.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond},
	})
	sup.Start()
	defer sup.Close()
	done := make(chan error, 1)
	go func() {
		_, err := sup.WaitBootstrap()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("bootstrap succeeded against a dead address")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitBootstrap hung on unreachable primary")
	}
}

// Close must sever a connection that is still mid-bootstrap: the
// supervisor records the dialing connection before WaitBootstrap
// succeeds, so a primary that wedges while shipping the snapshot cannot
// make Close (or the KillConnection drill) block forever.
func TestSupervisorCloseDuringWedgedBootstrap(t *testing.T) {
	l, err := network.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A primary that accepts and then wedges: no snapshot, no bootDone.
	conns := make(chan *network.Conn, 4)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conns <- c
		}
	}()

	sup := NewSupervisor(l.Addr(), olap.NewReplica(1), SupervisorConfig{
		Retry: network.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond},
	})
	sup.Start()
	// Wait until the wedged primary holds the supervisor's connection
	// (the client is now blocked waiting for a bootstrap that never
	// arrives).
	select {
	case c := <-conns:
		defer c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("supervisor never dialed")
	}

	done := make(chan struct{})
	go func() { sup.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung while the primary wedged mid-bootstrap")
	}
	if _, err := sup.WaitBootstrap(); err == nil {
		t.Fatal("WaitBootstrap reported success against a wedged primary")
	}
}

// Close is idempotent and leaves no goroutine blocked.
func TestSupervisorCloseIdempotent(t *testing.T) {
	sc := newServedCluster(t)
	sup, _ := newTestSupervisor(sc)
	if _, err := sup.WaitBootstrap(); err != nil {
		t.Fatal(err)
	}
	sup.Close()
	sup.Close()
	if sup.Status().Connected {
		t.Fatal("still connected after Close")
	}
}

// A zero SupervisorConfig takes every link default in NewSupervisor.
func TestSupervisorConfigDefaults(t *testing.T) {
	sup := NewSupervisor("127.0.0.1:1", olap.NewReplica(1), SupervisorConfig{})
	cfg := sup.cfg
	if cfg.Retry.Attempts != 5 || cfg.ReconnectPause != 100*time.Millisecond {
		t.Fatalf("retry attempts = %d, reconnect pause = %v, want 5, 100ms",
			cfg.Retry.Attempts, cfg.ReconnectPause)
	}
	if sup.NetStats() == nil || sup.stats == nil {
		t.Fatal("supervisor did not allocate its own stats")
	}
}
