package batchdb

import (
	"testing"
	"time"

	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
)

// TestEveryReplicaServesPrunedScans pins that each public kind of
// replica — the DB's own, an AttachWorkloadReplica one and a
// ConnectReplica node — is built with zone maps and no option set. The
// first query records its predicate's column; the apply round before the
// next activates its synopses, so a query on a value no row holds must
// skip blocks without reading them. Each kind also stamps every answer
// with its snapshot's provenance: a nonzero snapshot VID once a
// transaction committed, and a nonzero staleness.
func TestEveryReplicaServesPrunedScans(t *testing.T) {
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

	region := func(lo, hi int64) *Query {
		return &Query{
			Name:   "region",
			Driver: 1,
			Where:  []exec.Pred{exec.BetweenInt(2, lo, hi)},
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
			res, err := k.query(region(1, 1))
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
		res, err := k.query(region(99, 99))
		if err == nil {
			err = res.Err
		}
		if err != nil {
			t.Fatalf("%s query on an absent value: %v", k.name, err)
		}
		if res.Rows != 0 {
			t.Fatalf("%s query on an absent value: %d rows, want 0", k.name, res.Rows)
		}
		if n := k.stats.ExecBlocksSkipped.Load(); n == 0 {
			t.Fatalf("%s: no block skipped by the zone maps after an apply round", k.name)
		}
	}
}

// TestReplicateTablesKeepPKIndex pins the replicas' PK indexes: on the
// DB's own replica, a workload replica and a remote node, every
// analytical table — the Replicate accounts and the Analytical-only
// regions alike — is keyed like its primary, so FindPK resolves every
// loaded row (every join probe is a lookup in that index).
func TestReplicateTablesKeepPKIndex(t *testing.T) {
	f := newFixture(t, Config{OLTPWorkers: 2, OLAPWorkers: 2, PushPeriod: 10 * time.Millisecond})
	regions := f.addRegions(t)
	f.load(t, 100)
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
	node, err := ConnectReplica(addr, ReplicaNodeConfig{Partitions: 2, Workers: 2}, []ReplicaTable{
		{Schema: f.schema},
		{Schema: regions},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	for _, k := range []struct {
		name string
		rep  *olap.Replica
	}{
		{"db", f.db.Replica()},
		{"workload", wr.rep},
		{"node", node.Replica()},
	} {
		if _, _, ok := k.rep.Table(f.schema.ID).FindPK(100); !ok {
			t.Errorf("%s: PK index of the Replicate table misses account 100", k.name)
		}
		tbl := k.rep.Table(regions.ID)
		for i := uint64(0); i < 3; i++ {
			part, slot, ok := tbl.FindPK(i)
			if !ok {
				t.Errorf("%s: PK index of the Analytical-only table misses region %d", k.name, i)
				continue
			}
			if tup := tbl.Partitions[part].Tuple(slot); regions.GetInt64(tup, 1) != 10*int64(i) {
				t.Errorf("%s: PK index of the Analytical-only table resolves region %d to %v", k.name, i, tup)
			}
		}
	}
}

// addRegions creates an Analytical-only regions(id, name) table keyed
// by id, with regions 0..2 loaded (name 10*id), and returns its schema.
func (f *accountsFixture) addRegions(t *testing.T) *Schema {
	t.Helper()
	regions := NewSchema(2, "regions", []Column{
		{Name: "id", Type: Int64},
		{Name: "name", Type: Int64},
	}, []int{0})
	regionKey := func(tup []byte) uint64 { return uint64(regions.GetInt64(tup, 0)) }
	rt, err := f.db.CreateTable(regions, regionKey, TableOptions{Analytical: true, CapacityHint: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		tup := regions.NewTuple()
		regions.PutInt64(tup, 0, i)
		regions.PutInt64(tup, 1, 10*i)
		if err := rt.Load(tup); err != nil {
			t.Fatal(err)
		}
	}
	return regions
}
