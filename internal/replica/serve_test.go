package replica

import (
	"testing"
	"time"

	"batchdb/internal/network"
	"batchdb/internal/olap"
	"batchdb/internal/storage"
)

// TestServeCloseSeversReplicas pins the replica server's shutdown: Close
// severs every live replica, so its supervisor observes the disconnect;
// a dial after Close never bootstraps; and the server counts no live
// connection once the severed one has unwound.
func TestServeCloseSeversReplicas(t *testing.T) {
	engine, schema := newPutEngine(t)
	l, err := network.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, engine, []storage.TableID{1})
	engine.Start()
	defer engine.Close()
	sc := &servedCluster{engine: engine, schema: schema, addr: srv.Addr()}

	sup, rep := newTestSupervisor(sc)
	defer sup.Close()
	if _, err := sup.WaitBootstrap(); err != nil {
		t.Fatal(err)
	}
	sc.put(t, 1, 10)
	converge(t, sup, rep, sc)
	st := srv.Stats()
	if st.Active.Load() != 1 || st.Served.Load() != 1 {
		t.Fatalf("before Close: active %d, served %d, want 1 and 1", st.Active.Load(), st.Served.Load())
	}

	srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for sup.Status().Connected {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never observed the severed connection")
		}
		time.Sleep(5 * time.Millisecond)
	}

	late := olap.NewReplica(1)
	late.CreateTable(schema, 64)
	lateSup := NewSupervisor(srv.Addr(), late, SupervisorConfig{
		Retry: network.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond},
	})
	lateSup.Start()
	defer lateSup.Close()
	if _, err := lateSup.WaitBootstrap(); err == nil {
		t.Fatal("a replica dialing after Close bootstrapped")
	}

	for st.Active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("active = %d after Close, want 0", st.Active.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Served.Load() != 1 || st.Disconnects.Load() != 1 {
		t.Fatalf("after Close: served %d, disconnects %d, want 1 and 1", st.Served.Load(), st.Disconnects.Load())
	}
}
