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
