package batchdb

import (
	"context"
	"errors"
	"time"

	"fmt"

	"batchdb/internal/fleet"
	"batchdb/internal/fleet/node"
	"batchdb/internal/network"
	"batchdb/internal/obs"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/replica"
)

// ReplicaServerStats counts the primary's replica-serving activity.
type ReplicaServerStats struct {
	// Active is the number of currently connected replica nodes.
	Active obs.Gauge
	// Served counts replica connections accepted since ServeReplicas.
	Served obs.Counter
	// Disconnects counts replica connections that ended (including
	// replicas severed for lagging behind the publisher queue).
	Disconnects obs.Counter
}

// Register exposes the replica-serving counters through reg as registry
// views.
func (s *ReplicaServerStats) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.ObserveGauge("batchdb_replica_server_active",
		"Currently connected replica nodes.", &s.Active, labels...)
	reg.ObserveCounter("batchdb_replica_server_served_total",
		"Replica connections accepted since ServeReplicas.", &s.Served, labels...)
	reg.ObserveCounter("batchdb_replica_server_disconnects_total",
		"Replica connections that ended.", &s.Disconnects, labels...)
}

// ServeReplicas makes the primary accept remote OLAP replica nodes on
// addr (use "127.0.0.1:0" to pick a free port; the bound address is
// returned). For every replica that connects, the primary attaches an
// update forwarder, ships a bootstrap snapshot of all analytical
// tables, and then keeps feeding pushed updates — the paper's
// elasticity mechanism (§3.2, §6): modern networks let one primary feed
// multiple secondaries. When a replica's connection ends (death, lag
// sever, network fault), its forwarder is detached from the engine so
// the dispatcher stops encoding pushes for it; the replica is expected
// to reconnect and resync (see ConnectReplica).
func (db *DB) ServeReplicas(addr string) (string, error) {
	if !db.started {
		return "", errors.New("batchdb: ServeReplicas before Start")
	}
	ln, err := network.Listen(addr, nil)
	if err != nil {
		return "", err
	}
	db.repLn = ln
	db.repMu.Lock()
	if db.repConns == nil {
		db.repConns = make(map[*network.Conn]struct{})
	}
	if db.repPubs == nil {
		db.repPubs = make(map[*network.Conn]*replica.Publisher)
	}
	db.repMu.Unlock()
	db.repSrv.Register(db.reg)
	db.reg.GaugeFunc("batchdb_replica_send_queue_depth",
		"Frames queued across all replica publishers (propagation backpressure).",
		func() float64 {
			db.repMu.Lock()
			defer db.repMu.Unlock()
			n := 0
			for _, pub := range db.repPubs {
				n += pub.QueueDepth()
			}
			return float64(n)
		})
	var analytical []TableID
	for _, t := range db.order {
		if t.opts.Analytical {
			analytical = append(analytical, t.id)
		}
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			// Register before attaching anything: a connection racing in
			// while Close drains the map must be severed, never left as a
			// live replica feed on a stopped engine.
			db.repMu.Lock()
			if db.repClosed {
				db.repMu.Unlock()
				conn.Close()
				continue
			}
			pub := replica.NewPublisher(conn, db.engine)
			db.repConns[conn] = struct{}{}
			db.repPubs[conn] = pub
			db.repMu.Unlock()
			// Attach the feed before snapshotting so the replica's VID
			// floor covers the gap (no loss, no double apply).
			db.engine.AddSink(pub)
			db.repSrv.Active.Add(1)
			db.repSrv.Served.Inc()
			go func() {
				pub.Serve()
				// The connection is gone: detach the forwarder so pushes
				// stop being encoded for a dead replica.
				db.engine.RemoveSink(pub)
				db.repMu.Lock()
				delete(db.repConns, conn)
				delete(db.repPubs, conn)
				db.repMu.Unlock()
				db.repSrv.Active.Add(-1)
				db.repSrv.Disconnects.Inc()
			}()
			go func() {
				if _, err := replica.ShipSnapshot(conn, db.store, analytical, 4096); err != nil {
					conn.Close()
				}
			}()
		}
	}()
	return ln.Addr(), nil
}

// ReplicaServerStats returns the primary's replica-serving counters.
func (db *DB) ReplicaServerStats() *ReplicaServerStats { return &db.repSrv }

// WorkloadReplica is an additional co-located analytical replica with
// its own dispatcher — the paper's §7 extension ("separate replica for
// different types of workloads"): long-running offline queries run on
// their own replica and batch schedule, so they never inflate the
// latency of the online analytical class. It trades memory for
// isolation, exactly as §7 discusses.
type WorkloadReplica struct {
	rep   *olap.Replica
	execE *exec.Engine
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
	rep := newReplica(partitions, db.cfg.MorselTuples)
	var analytical []TableID
	for _, t := range db.order {
		if t.opts.Analytical {
			rep.CreateTable(t.OLTP.Schema, t.opts.CapacityHint)
			analytical = append(analytical, t.id)
		}
	}
	// Attach the feed first, then snapshot: the replica's VID floor
	// discards updates the snapshot already contains.
	db.engine.AddSink(rep)
	if _, err := replica.LoadLocal(rep, db.store, analytical); err != nil {
		return nil, err
	}
	rep.SetApplyWorkers(workers)
	w := &WorkloadReplica{rep: rep, execE: exec.NewEngine(rep, workers)}
	if db.cfg.MorselTuples > 0 {
		w.execE.MorselTuples = db.cfg.MorselTuples
	}
	w.sched = olap.NewScheduler[*Query, Result](rep, db.engine, w.execE.RunBatch)
	w.execE.AttachStats(w.sched.Stats())
	db.repMu.Lock()
	db.wrSeq++
	class := fmt.Sprintf("workload-%d", db.wrSeq)
	db.repMu.Unlock()
	w.sched.RegisterMetrics(db.reg, obs.L("class", class))
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
// schema must match the primary's definition.
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
	// MorselTuples is the executor's scan morsel size (default 16384).
	MorselTuples int
	// Retry governs dialing (and, after a connection loss, redialing)
	// the primary; the zero value gives 5 attempts from a 25ms base
	// delay with exponential backoff and jitter.
	Retry network.RetryPolicy
	// Transport sets per-connection deadlines. Zero Send/Grant timeouts
	// default to 10s each, so a wedged primary or lost rendezvous grant
	// surfaces as a connection failure (and a reconnect) instead of a
	// silent hang.
	Transport network.Options
	// ReconnectPause is the pause between failed reconnect rounds
	// (default 100ms).
	ReconnectPause time.Duration
	// Fault, when non-nil, is installed on every connection the node
	// establishes — deterministic fault injection for tests and drills.
	Fault network.FaultPolicy
	// Metrics, when non-nil, receives the node's dispatcher, freshness,
	// supervisor, and transport instruments (labelled class="remote").
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
// ReplicaNode wraps internal/fleet/node.Node, the unit the fleet router
// (ConnectFleet) fans queries across.
type ReplicaNode struct {
	n *node.Node
}

// newReplica returns an empty columnar replica in the one layout every
// replica serves from: per-block zone maps one scan morsel wide, so block
// verdicts map one-to-one onto morsels, and encoded column vectors on
// those blocks. Both are enabled before any load so synopses build
// incrementally.
func newReplica(partitions, morselTuples int) *olap.Replica {
	rep := olap.NewReplica(partitions)
	if morselTuples <= 0 {
		morselTuples = exec.DefaultMorselTuples
	}
	rep.EnableZoneMaps(morselTuples)
	rep.EnableCompression()
	return rep
}

// newNodeReplica builds the columnar replica a node serves from, with
// one empty table per declared relation.
func newNodeReplica(cfg ReplicaNodeConfig, tables []ReplicaTable) *olap.Replica {
	rep := newReplica(cfg.Partitions, cfg.MorselTuples)
	for _, t := range tables {
		hint := t.CapacityHint
		if hint <= 0 {
			hint = 1024
		}
		rep.CreateTable(t.Schema, hint)
	}
	return rep
}

func (cfg ReplicaNodeConfig) nodeConfig(labels ...obs.Label) node.Config {
	return node.Config{
		Workers:        cfg.Workers,
		MorselTuples:   cfg.MorselTuples,
		Retry:          cfg.Retry,
		Transport:      cfg.Transport,
		ReconnectPause: cfg.ReconnectPause,
		Fault:          cfg.Fault,
		Metrics:        cfg.Metrics,
		MetricsLabels:  labels,
	}
}

// ConnectReplica dials a primary's replication address, bootstraps, and
// starts serving queries.
func ConnectReplica(primaryAddr string, cfg ReplicaNodeConfig, tables []ReplicaTable) (*ReplicaNode, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	rep := newNodeReplica(cfg, tables)
	n, err := node.Connect(primaryAddr, rep, cfg.nodeConfig(obs.L("class", "remote")))
	if err != nil {
		return nil, err
	}
	return &ReplicaNode{n: n}, nil
}

// Query submits one analytical query to this replica node.
func (n *ReplicaNode) Query(q *Query) (Result, error) { return n.n.Query(q) }

// QueryContext submits one analytical query, honoring ctx during both
// enqueue and wait. While the node is degraded (feed to the primary
// down) the result is marked Degraded and carries its snapshot VID and
// wall-clock staleness, so callers can tell how old the answer is.
func (n *ReplicaNode) QueryContext(ctx context.Context, q *Query) (Result, error) {
	return n.n.QueryContext(ctx, q)
}

// Health reports the node's routing-relevant health signals (connection
// state, snapshot freshness, scheduler queue depth).
func (n *ReplicaNode) Health() fleet.Health { return n.n.Health() }

// Stats returns the node's dispatcher counters.
func (n *ReplicaNode) Stats() *olap.SchedulerStats { return n.n.Stats() }

// Replica exposes the node's local replica state.
func (n *ReplicaNode) Replica() *olap.Replica { return n.n.Replica() }

// TransportStats returns the node's network counters accumulated across
// every connection it established (eager vs rendezvous messages, buffer
// reuse, retries, severed connections).
func (n *ReplicaNode) TransportStats() *network.Stats { return n.n.TransportStats() }

// ReplicaStats returns the node's robustness counters (reconnects,
// resyncs, degraded time).
func (n *ReplicaNode) ReplicaStats() *replica.Stats { return n.n.ReplicaStats() }

// Status reports the replication channel's health: whether the node is
// connected or serving degraded (stale but consistent) data, how often
// it reconnected and resynced, and the cumulative degraded time.
func (n *ReplicaNode) Status() replica.Status { return n.n.Status() }

// KillConnection severs the node's current connection to the primary —
// a fault hook for tests and operational drills. The node reconnects
// and resyncs automatically.
func (n *ReplicaNode) KillConnection() { n.n.KillConnection() }

// InjectFault installs a fault policy on the node's current connection.
func (n *ReplicaNode) InjectFault(p network.FaultPolicy) { n.n.InjectFault(p) }

// Close disconnects and stops the node.
func (n *ReplicaNode) Close() { n.n.Close() }
