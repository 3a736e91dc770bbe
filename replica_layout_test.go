package batchdb

import (
	"testing"
	"time"

	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
)

// TestEveryReplicaServesVectorizedScans pins that each public kind of
// replica — the DB's own, an AttachWorkloadReplica one and a
// ConnectReplica node — is built with zone maps and encoded vectors and
// no option set. The first query records its predicate's column; the
// apply round before the second activates and encodes it, so the second
// query's scan must be served by the encoded-block kernels. Each kind
// also stamps every answer with its snapshot's provenance: a nonzero
// snapshot VID once a transaction committed, and a nonzero staleness.
func TestEveryReplicaServesVectorizedScans(t *testing.T) {
	f := newFixture(t, Config{OLTPWorkers: 2, OLAPWorkers: 2, PushPeriod: 10 * time.Millisecond})
	f.load(t, 300)
	if err := f.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.db.Close()

	wr, err := f.db.AttachWorkloadReplica(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()
	addr, err := f.db.ServeReplicas("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := ConnectReplica(addr, ReplicaNodeConfig{Partitions: 2, Workers: 2},
		[]ReplicaTable{{Schema: f.schema}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	// Commit past the bulk load, so a snapshot VID of 0 would mean "no
	// provenance" rather than "the load".
	if r := f.db.Exec("deposit", depositArgs(1, 0)); r.Err != nil {
		t.Fatal(r.Err)
	}

	regionOne := func() *Query {
		return &Query{
			Name:   "regionOne",
			Driver: 1,
			Where:  []exec.Pred{exec.BetweenInt(2, 1, 1)},
			Aggs:   []AggSpec{{Kind: Count}},
		}
	}
	kinds := []struct {
		name  string
		query func(*Query) (Result, error)
		stats *olap.SchedulerStats
	}{
		{"db", f.db.Query, f.db.OLAPStats()},
		{"workload", wr.Query, wr.Stats()},
		{"node", node.Query, node.Stats()},
	}
	for _, k := range kinds {
		for round := 0; round < 2; round++ {
			res, err := k.query(regionOne())
			if err == nil {
				err = res.Err
			}
			if err != nil {
				t.Fatalf("%s query %d: %v", k.name, round, err)
			}
			if res.Rows != 100 {
				t.Fatalf("%s query %d: %d rows, want 100", k.name, round, res.Rows)
			}
			if res.SnapshotVID == 0 || res.StalenessNanos == 0 {
				t.Fatalf("%s query %d: snapshot VID %d, staleness %dns, want both nonzero",
					k.name, round, res.SnapshotVID, res.StalenessNanos)
			}
		}
		if n := k.stats.ExecBlocksVectorized.Load(); n == 0 {
			t.Fatalf("%s: no block served by the encoded-block kernels after an apply round", k.name)
		}
	}
}

// TestReplicateTablesKeepPKIndex pins the replicas' PK indexes: on the
// DB's own replica, a workload replica and a remote node declared with
// each table's Key, every Replicate table keeps a PK index (join probes
// into a changing table need no per-batch build) and an Analytical-only
// table does not. A node declared without Key keeps no index at all.
func TestReplicateTablesKeepPKIndex(t *testing.T) {
	f := newFixture(t, Config{OLTPWorkers: 2, OLAPWorkers: 2, PushPeriod: 10 * time.Millisecond})
	regions := NewSchema(2, "regions", []Column{
		{Name: "id", Type: Int64},
		{Name: "name", Type: Int64},
	}, []int{0})
	regionKey := func(tup []byte) uint64 { return uint64(regions.GetInt64(tup, 0)) }
	rt, err := f.db.CreateTable(regions, regionKey, TableOptions{Analytical: true, CapacityHint: 8})
	if err != nil {
		t.Fatal(err)
	}
	f.load(t, 100)
	for i := int64(0); i < 3; i++ {
		tup := regions.NewTuple()
		regions.PutInt64(tup, 0, i)
		regions.PutInt64(tup, 1, 10*i)
		if _, err := rt.Load(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.db.Close()

	wr, err := f.db.AttachWorkloadReplica(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()
	addr, err := f.db.ServeReplicas("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	connect := func(tables []ReplicaTable) *ReplicaNode {
		t.Helper()
		n, err := ConnectReplica(addr, ReplicaNodeConfig{Partitions: 2, Workers: 2}, tables)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}
	keyed := connect([]ReplicaTable{
		{Schema: f.schema, Key: f.tbl.OLTP.KeyFn},
		{Schema: regions},
	})
	unkeyed := connect([]ReplicaTable{{Schema: f.schema}, {Schema: regions}})

	for _, k := range []struct {
		name          string
		rep           *olap.Replica
		accountsHasPK bool
	}{
		{"db", f.db.Replica(), true},
		{"workload", wr.rep, true},
		{"node with Key", keyed.Replica(), true},
		{"node without Key", unkeyed.Replica(), false},
	} {
		if got := k.rep.Table(f.schema.ID).HasPKIndex(); got != k.accountsHasPK {
			t.Errorf("%s: Replicate table HasPKIndex = %v, want %v", k.name, got, k.accountsHasPK)
		}
		if k.rep.Table(regions.ID).HasPKIndex() {
			t.Errorf("%s: Analytical-only table keeps a PK index", k.name)
		}
		// The index resolves every loaded account.
		if k.accountsHasPK {
			if _, ok := k.rep.Table(f.schema.ID).GetByPK(100); !ok {
				t.Errorf("%s: PK index misses account 100", k.name)
			}
		}
	}
}
