package batchdb

import (
	"errors"
	"fmt"

	"batchdb/internal/fleet/node"
	"batchdb/internal/network"
	"batchdb/internal/obs"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/replica"
)

// ReplicaServerStats counts the primary's replica-serving activity.
type ReplicaServerStats = replica.ServerStats

// ReplicaLinkConfig parameterizes a replica node's supervised link to
// the primary: dial retry, transport deadlines, reconnect pause and
// fault policy. Zero fields take the supervisor's defaults.
type ReplicaLinkConfig = replica.SupervisorConfig

// ServeReplicas makes the primary accept remote OLAP replica nodes on
// addr (use "127.0.0.1:0" to pick a free port; the bound address is
// returned). For every replica that connects, the primary attaches an
// update forwarder, ships a bootstrap snapshot of all analytical
// tables, and then keeps feeding pushed updates — the paper's
// elasticity mechanism (§3.2, §6): modern networks let one primary feed
// multiple secondaries. When a replica's connection ends (death, lag
// sever, network fault), its forwarder is detached from the engine so
// the dispatcher stops encoding pushes for it; the replica is expected
// to reconnect and resync (see ConnectReplica). Close severs every
// connected replica.
func (db *DB) ServeReplicas(addr string) (string, error) {
	if !db.started {
		return "", errors.New("batchdb: ServeReplicas before Start")
	}
	ln, err := network.Listen(addr, nil)
	if err != nil {
		return "", err
	}
	db.repSrv = replica.Serve(ln, db.engine, db.analyticalTables())
	db.repSrv.RegisterMetrics(db.reg)
	return db.repSrv.Addr(), nil
}

// ReplicaServerStats returns the primary's replica-serving counters
// (all zero before ServeReplicas).
func (db *DB) ReplicaServerStats() *ReplicaServerStats {
	if db.repSrv == nil {
		return &ReplicaServerStats{}
	}
	return db.repSrv.Stats()
}

// analyticalTables lists the tables a replica holds, in creation order.
func (db *DB) analyticalTables() []TableID {
	var ids []TableID
	for _, t := range db.order {
		if t.opts.Analytical {
			ids = append(ids, t.id)
		}
	}
	return ids
}

// attachReplica builds a co-located replica of the analytical tables,
// each keyed by its primary's key function so every join probe is a
// lookup in the table's PK index, attaches it to the primary's update
// stream and loads the primary's committed state into it. The feed is
// attached first, so the replica's VID floor discards the updates the
// snapshot already contains.
func (db *DB) attachReplica(partitions int) (*olap.Replica, error) {
	rep := newReplica(partitions)
	for _, t := range db.order {
		if t.opts.Analytical {
			rep.CreateTable(t.OLTP.Schema, t.opts.CapacityHint)
		}
	}
	db.engine.AddSink(rep)
	if _, err := replica.LoadLocal(rep, db.store, db.analyticalTables()); err != nil {
		return nil, err
	}
	return rep, nil
}

// WorkloadReplica is an additional co-located analytical replica with
// its own dispatcher — the paper's §7 extension ("separate replica for
// different types of workloads"): long-running offline queries run on
// their own replica and batch schedule, so they never inflate the
// latency of the online analytical class. It trades memory for
// isolation, exactly as §7 discusses.
type WorkloadReplica struct {
	rep   *olap.Replica
	sched *olap.Scheduler[*Query, Result]
}

// AttachWorkloadReplica creates and bootstraps an extra local replica
// fed by the same update stream as the main OLAP replica. Call after
// Start. workers bounds its scan parallelism; partitions its table
// partition count.
func (db *DB) AttachWorkloadReplica(workers, partitions int) (*WorkloadReplica, error) {
	if !db.started {
		return nil, errors.New("batchdb: AttachWorkloadReplica before Start")
	}
	if workers <= 0 {
		workers = 1
	}
	if partitions <= 0 {
		partitions = workers
	}
	rep, err := db.attachReplica(partitions)
	if err != nil {
		return nil, err
	}
	w := &WorkloadReplica{rep: rep, sched: exec.NewScheduler(rep, db.engine, workers)}
	w.sched.RegisterMetrics(db.reg, obs.L("class", fmt.Sprintf("workload-%d", db.wrSeq.Add(1))))
	w.sched.Start()
	return w, nil
}

// Query submits a query to this workload class's own batch schedule.
func (w *WorkloadReplica) Query(q *Query) (Result, error) { return w.sched.Query(q) }

// Stats returns the class's dispatcher counters.
func (w *WorkloadReplica) Stats() *olap.SchedulerStats { return w.sched.Stats() }

// Close stops the class's dispatcher (the replica stops applying
// updates but keeps receiving them until the DB closes).
func (w *WorkloadReplica) Close() { w.sched.Close() }

// ReplicaTable declares one relation of a remote replica node; the
// schema must match the primary's definition. The primary ships every
// row under its packed primary key, which the node indexes, so every
// join probe into the relation is a lookup by key.
type ReplicaTable struct {
	Schema       *Schema
	CapacityHint int
}

// ReplicaNodeConfig parameterizes a remote OLAP replica node.
type ReplicaNodeConfig struct {
	// Partitions per table (default 4).
	Partitions int
	// Workers bounds scan/build parallelism (default 4).
	Workers int
	// Link parameterizes the supervised connection to the primary
	// (dial retry, transport deadlines, reconnect pause, fault policy).
	Link ReplicaLinkConfig
	// Metrics, when non-nil, receives the node's dispatcher, freshness,
	// supervisor, and transport instruments (labelled class="remote";
	// ConnectFleet adds member=<i> to tell its nodes apart).
	Metrics *obs.Registry
}

// ReplicaNode is a remote analytical replica: it bootstraps from a
// primary over the network, receives pushed updates, and answers
// analytical queries with the same batch-at-a-time semantics as the
// primary-local replica (paper §6, "Distributed (RDMA) Replicas").
//
// The node's connection is supervised: if it drops, the node keeps
// serving queries from its last consistent snapshot — explicitly:
// results carry their snapshot VID and wall-clock staleness, and are
// marked Degraded while the feed is down — while the supervisor
// reconnects with backoff and resyncs from a fresh snapshot.
//
// It is the unit the fleet router (ConnectFleet) fans queries across.
type ReplicaNode = node.Node

// newReplica returns an empty columnar replica in the one layout every
// replica serves from: per-block zone maps one scan morsel wide, so block
// verdicts map one-to-one onto morsels. They are enabled before any load
// so synopses build incrementally.
func newReplica(partitions int) *olap.Replica {
	rep := olap.NewReplica(partitions)
	rep.EnableZoneMaps(exec.DefaultMorselTuples)
	return rep
}

// ConnectReplica dials a primary's replication address, bootstraps, and
// starts serving queries.
func ConnectReplica(primaryAddr string, cfg ReplicaNodeConfig, tables []ReplicaTable) (*ReplicaNode, error) {
	return connectReplica(primaryAddr, cfg, tables, obs.L("class", "remote"))
}

// connectReplica is ConnectReplica with the labels the node's
// instruments register under.
func connectReplica(primaryAddr string, cfg ReplicaNodeConfig, tables []ReplicaTable, labels ...obs.Label) (*ReplicaNode, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 4
	}
	rep := newReplica(cfg.Partitions)
	for _, t := range tables {
		hint := t.CapacityHint
		if hint <= 0 {
			hint = 1024
		}
		rep.CreateTable(t.Schema, hint)
	}
	return node.Connect(primaryAddr, rep, node.Config{
		Workers:       cfg.Workers,
		Link:          cfg.Link,
		Metrics:       cfg.Metrics,
		MetricsLabels: labels,
	})
}
