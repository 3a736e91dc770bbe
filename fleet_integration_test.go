package batchdb

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFleetEndToEnd drives the public fleet API: ServeReplicas +
// ConnectFleet, routed queries under budgets, a kill drill mid-service,
// and the staleness-bound contract.
func TestFleetEndToEnd(t *testing.T) {
	f := newFixture(t, Config{PushPeriod: 10 * time.Millisecond})
	f.load(t, 100)
	if err := f.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.db.Close()
	addr, err := f.db.ServeReplicas("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	fl, err := ConnectFleet(addr, FleetConfig{
		Replicas: 2,
		Node: ReplicaNodeConfig{
			Partitions: 2,
			Workers:    2,
			Link:       ReplicaLinkConfig{ReconnectPause: 10 * time.Millisecond},
			Metrics:    f.db.Metrics(),
		},
		Router: RouterConfig{Deadline: 10 * time.Second},
	}, []ReplicaTable{{Schema: f.schema}})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if got := len(fl.Nodes()); got != 2 {
		t.Fatalf("fleet size = %d, want 2", got)
	}
	// Both nodes share the DB's registry, each under its own member
	// label.
	members := map[string]bool{}
	for _, s := range f.db.Metrics().Samples() {
		if s.Name != "batchdb_olap_queries_total" {
			continue
		}
		for _, l := range s.Labels {
			if l.Key == "member" {
				members[l.Value] = true
			}
		}
	}
	if !members["0"] || !members["1"] {
		t.Fatalf("batchdb_olap_queries_total members = %v, want 0 and 1", members)
	}

	res, meta, err := fl.Query(context.Background(), f.totalQuery(), FleetBudget{})
	if err != nil || res.Err != nil {
		t.Fatalf("routed query: %v / %v", err, res.Err)
	}
	if res.Values[0] != 100*100 {
		t.Fatalf("bootstrap total = %f", res.Values[0])
	}
	if meta.Backend < 0 || meta.Backend >= 2 || meta.Attempts < 1 {
		t.Fatalf("implausible routing meta: %+v", meta)
	}

	// Updates reach whichever member answers (every batch syncs first).
	for i := 0; i < 30; i++ {
		if r := f.db.Exec("deposit", depositArgs(uint64(i%100)+1, 2)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	res, _, err = fl.Query(context.Background(), f.totalQuery(), FleetBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 100*100+30*2 {
		t.Fatalf("routed freshness broken: %f", res.Values[0])
	}

	// Kill drill: sever member 0's feed mid-service. The router keeps
	// answering — retry lands on the healthy member, and the killed one
	// reconnects and resyncs on its own.
	fl.Nodes()[0].KillConnection()
	for i := 0; i < 10; i++ {
		if _, _, err := fl.Query(context.Background(), f.totalQuery(), FleetBudget{}); err != nil {
			t.Fatalf("query %d after kill drill: %v", i, err)
		}
	}

	// An unsatisfiable bound under StaleReject is a typed rejection, not
	// a silently old answer (snapshots are always at least a little old).
	_, _, err = fl.Query(context.Background(), f.totalQuery(), FleetBudget{
		MaxStaleness: time.Nanosecond,
		StalePolicy:  StaleReject,
	})
	if !errors.Is(err, ErrFleetStalenessUnmet) {
		t.Fatalf("1ns StaleReject bound = %v, want ErrFleetStalenessUnmet", err)
	}
	// The same bound under StaleServe serves the freshest answer flagged.
	res, meta, err = fl.Query(context.Background(), f.totalQuery(), FleetBudget{
		MaxStaleness: time.Nanosecond,
		StalePolicy:  StaleServe,
	})
	if err != nil || res.Err != nil {
		t.Fatalf("StaleServe fallback: %v / %v", err, res.Err)
	}
	if !meta.Stale {
		t.Fatal("answer beyond the bound not flagged Stale")
	}

	st := fl.Stats()
	if st.Queries.Load() != st.Answered.Load()+st.Rejected.Load()+st.Shed.Load() {
		t.Fatalf("counter drift: queries %d != answered %d + rejected %d + shed %d",
			st.Queries.Load(), st.Answered.Load(), st.Rejected.Load(), st.Shed.Load())
	}
}

// TestReplicaNodeDegradedStaleness pins the degraded-answer contract of
// ISSUE 7: when a node's feed to the primary is down, answers still
// come — from the last consistent snapshot — but carry Degraded plus a
// snapshot VID and a wall-clock staleness that keeps growing, so a
// caller can always tell how old the data is.
func TestReplicaNodeDegradedStaleness(t *testing.T) {
	f := newFixture(t, Config{PushPeriod: 10 * time.Millisecond})
	f.load(t, 50)
	if err := f.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.db.Close()
	addr, err := f.db.ServeReplicas("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := ConnectReplica(addr, ReplicaNodeConfig{
		Partitions: 2,
		Workers:    2,
		Link:       ReplicaLinkConfig{ReconnectPause: 10 * time.Millisecond},
	}, []ReplicaTable{{Schema: f.schema}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Commit a transaction so the snapshot VID has advanced past the
	// bulk load (VID 0 would be indistinguishable from "no provenance").
	if r := f.db.Exec("deposit", depositArgs(1, 0)); r.Err != nil {
		t.Fatal(r.Err)
	}
	res, err := n.QueryContext(context.Background(), f.totalQuery())
	if err != nil || res.Err != nil {
		t.Fatalf("healthy query: %v / %v", err, res.Err)
	}
	if res.Degraded {
		t.Fatal("healthy answer marked Degraded")
	}
	if res.SnapshotVID == 0 {
		t.Fatal("healthy answer missing snapshot VID")
	}

	// Stop serving replicas entirely (closing the listener and severing
	// live feeds), then sever the node's connection from its side too:
	// reconnects fail, so the node stays degraded.
	f.db.repSrv.Close()
	n.KillConnection()
	deadline := time.Now().Add(10 * time.Second)
	for n.Status().Connected {
		if time.Now().After(deadline) {
			t.Fatal("node never observed the disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let wall-clock staleness accrue

	res2, err := n.QueryContext(context.Background(), f.totalQuery())
	if err != nil || res2.Err != nil {
		t.Fatalf("degraded query: %v / %v", err, res2.Err)
	}
	if !res2.Degraded {
		t.Fatal("answer during outage not marked Degraded")
	}
	if res2.SnapshotVID == 0 || res2.SnapshotVID < res.SnapshotVID {
		t.Fatalf("degraded snapshot VID = %d, want >= %d", res2.SnapshotVID, res.SnapshotVID)
	}
	if res2.StalenessNanos < int64(40*time.Millisecond) {
		t.Fatalf("degraded staleness = %v, want to reflect the outage age",
			time.Duration(res2.StalenessNanos))
	}
	// The answer is stale but consistent: the last installed snapshot.
	if res2.Values[0] != 50*100 {
		t.Fatalf("degraded answer inconsistent: %f", res2.Values[0])
	}
	if st := n.Status(); st.CurrentOutage <= 0 {
		t.Fatalf("Status.CurrentOutage = %v during an outage", st.CurrentOutage)
	}
}
