// Package node wires one remote OLAP replica node: a supervised
// replication feed (replica.Supervisor), a local columnar replica, the
// shared-execution engine, and a batch-at-a-time scheduler. It is the
// fleet.Backend the router fans queries across, factored out of the
// root package so the fleet tests can build fleets without importing
// the public API.
package node

import (
	"context"

	"batchdb/internal/fleet"
	"batchdb/internal/network"
	"batchdb/internal/obs"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/replica"
)

// Config parameterizes one replica node. The replica itself (tables
// created, zone maps enabled) is supplied by the caller, so
// any schema set — root DB tables, CH-benCHmark, test fixtures — wires
// the same way.
type Config struct {
	// Workers bounds scan/build/apply parallelism (default 4).
	Workers int
	// Link parameterizes the supervised connection to the primary.
	Link replica.SupervisorConfig
	// Metrics, when non-nil, receives the node's dispatcher, freshness,
	// and supervisor instruments under MetricsLabels.
	Metrics       *obs.Registry
	MetricsLabels []obs.Label
}

// Node is one remote analytical replica node. It implements
// fleet.Backend[*exec.Query, exec.Result].
type Node struct {
	sup   *replica.Supervisor
	rep   *olap.Replica
	sched *olap.Scheduler[*exec.Query, exec.Result]
}

// Connect dials primaryAddr, bootstraps rep from the primary's
// snapshot, and starts the node's scheduler. rep must already have its
// tables created (matching the primary's analytical set).
func Connect(primaryAddr string, rep *olap.Replica, cfg Config) (*Node, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	sup := replica.NewSupervisor(primaryAddr, rep, cfg.Link)
	sup.Start()
	if _, err := sup.WaitBootstrap(); err != nil {
		sup.Close()
		return nil, err
	}
	n := &Node{sup: sup, rep: rep, sched: exec.NewScheduler(rep, sup, cfg.Workers)}
	if cfg.Metrics != nil {
		n.sched.RegisterMetrics(cfg.Metrics, cfg.MetricsLabels...)
		sup.RegisterMetrics(cfg.Metrics, cfg.MetricsLabels...)
	}
	n.sched.Start()
	return n, nil
}

// Query submits one analytical query to this node's batch schedule.
func (n *Node) Query(q *exec.Query) (exec.Result, error) {
	return n.QueryContext(context.Background(), q)
}

// QueryContext submits one analytical query, honoring ctx. Answers
// computed while the node's feed from the primary is down are marked
// Degraded: the snapshot VID and wall-clock staleness stamped by the
// engine then describe data that cannot advance until resync, so
// callers (and the fleet router) can tell a stale answer from a fresh
// one instead of receiving them indistinguishably.
func (n *Node) QueryContext(ctx context.Context, q *exec.Query) (exec.Result, error) {
	res, err := n.sched.QueryContext(ctx, q)
	if err != nil {
		return res, err
	}
	if !n.sup.Status().Connected {
		res.Degraded = true
		// Re-stamp staleness at answer time: during an outage it keeps
		// growing past the batch-start stamp, and underreporting
		// staleness is the one direction the bound contract forbids.
		if ns := n.sched.Freshness().StalenessNanos(); ns > res.StalenessNanos {
			res.StalenessNanos = ns
		}
	}
	return res, nil
}

// Health implements fleet.Backend: the supervisor's connection state
// plus the freshness tracker's live snapshot-age signals and the
// scheduler's admission-queue depth.
func (n *Node) Health() fleet.Health {
	f := n.sched.Freshness()
	return fleet.Health{
		Connected:      n.sup.Status().Connected,
		InstalledVID:   f.InstalledVID(),
		StalenessNanos: f.StalenessNanos(),
		VIDLag:         f.VIDLag(),
		QueueDepth:     n.sched.QueueDepth(),
	}
}

// Stats returns the node's dispatcher counters.
func (n *Node) Stats() *olap.SchedulerStats { return n.sched.Stats() }

// Replica exposes the node's local replica state.
func (n *Node) Replica() *olap.Replica { return n.rep }

// Freshness returns the node's snapshot-freshness tracker.
func (n *Node) Freshness() *obs.Freshness { return n.sched.Freshness() }

// TransportStats returns the node's network counters.
func (n *Node) TransportStats() *network.Stats { return n.sup.NetStats() }

// ReplicaStats returns the node's robustness counters.
func (n *Node) ReplicaStats() *replica.Stats { return n.sup.Stats() }

// Status reports the replication channel's health.
func (n *Node) Status() replica.Status { return n.sup.Status() }

// KillConnection severs the node's current connection to the primary —
// a fault hook for tests and drills. The node reconnects and resyncs.
func (n *Node) KillConnection() { n.sup.KillConnection() }

// InjectFault installs a fault policy on the node's current connection.
func (n *Node) InjectFault(p network.FaultPolicy) { n.sup.InjectFault(p) }

// Close stops the node's scheduler and disconnects.
func (n *Node) Close() {
	n.sched.Close()
	n.sup.Close()
}
