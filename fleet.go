package batchdb

import (
	"context"
	"strconv"

	"batchdb/internal/fleet"
	"batchdb/internal/obs"
)

// Re-exported fleet types so callers configure routing without
// importing internal packages.
type (
	// FleetBudget is the per-query SLO: deadline, staleness bound, and
	// what to do when the bound cannot be met.
	FleetBudget = fleet.Budget
	// RouterConfig parameterizes the fleet router (deadlines, retry
	// policy, breaker thresholds, load shedding).
	RouterConfig = fleet.Config
	// RouteMeta describes how one query was routed (which member
	// answered, attempts, snapshot provenance, Stale flag).
	RouteMeta = fleet.Meta
)

// Staleness policies for FleetBudget.
const (
	StaleReject = fleet.StaleReject
	StaleServe  = fleet.StaleServe
)

// Typed fleet routing errors (match with errors.Is).
var (
	ErrFleetOverloaded     = fleet.ErrOverloaded
	ErrFleetNoHealthy      = fleet.ErrNoHealthy
	ErrFleetStalenessUnmet = fleet.ErrStalenessUnmet
	ErrFleetExhausted      = fleet.ErrExhausted
	ErrFleetClosed         = fleet.ErrClosed
)

// FleetConfig parameterizes ConnectFleet.
type FleetConfig struct {
	// Replicas is the fleet size (default 3).
	Replicas int
	// Node parameterizes each replica node (partitions, workers, link).
	// Node.Metrics also receives the router's instruments; node i's
	// carry member=<i>.
	Node ReplicaNodeConfig
	// Router parameterizes routing; the zero value gives 2s deadlines,
	// 3 attempts and StaleReject.
	Router RouterConfig
}

// Fleet is a router-fronted set of remote OLAP replica nodes: clients
// submit queries to the fleet, never to a node. The router owns health
// gating (circuit breaker + freshness + queue depth), bounded retry
// under per-query budgets, staleness-bound enforcement, and load
// shedding: the fleet's dispatch tier.
type Fleet struct {
	nodes  []*ReplicaNode
	router *fleet.Router[*Query, Result]
}

// ConnectFleet dials the primary's replication address once per
// replica, bootstraps each node, and fronts them with a router. Nodes
// that fail to bootstrap abort the whole fleet (partial fleets would
// silently shrink capacity; callers retry instead).
func ConnectFleet(primaryAddr string, cfg FleetConfig, tables []ReplicaTable) (*Fleet, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	f := &Fleet{}
	backends := make([]fleet.Backend[*Query, Result], 0, cfg.Replicas)
	for i := 0; i < cfg.Replicas; i++ {
		n, err := connectReplica(primaryAddr, cfg.Node, tables,
			obs.L("class", "remote"), obs.L("member", strconv.Itoa(i)))
		if err != nil {
			f.closeNodes()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		backends = append(backends, n)
	}
	router, err := fleet.NewRouter[*Query, Result](backends, cfg.Router)
	if err != nil {
		f.closeNodes()
		return nil, err
	}
	f.router = router
	if cfg.Node.Metrics != nil {
		router.RegisterMetrics(cfg.Node.Metrics)
	}
	return f, nil
}

// Query routes one analytical query through the fleet under budget b.
// The returned RouteMeta reports which node answered, the attempt
// count, and the answer's snapshot provenance; Meta.Stale marks
// an answer served beyond the requested bound under StaleServe.
func (f *Fleet) Query(ctx context.Context, q *Query, b FleetBudget) (Result, RouteMeta, error) {
	return f.router.Query(ctx, q, b)
}

// Nodes exposes the fleet's members (fault hooks, per-node stats).
func (f *Fleet) Nodes() []*ReplicaNode { return f.nodes }

// Stats returns the router's counters.
func (f *Fleet) Stats() *fleet.Stats { return f.router.Stats() }

// Router exposes the underlying router (member health, ejected count).
func (f *Fleet) Router() *fleet.Router[*Query, Result] { return f.router }

// Close stops routing, then closes every node.
func (f *Fleet) Close() {
	if f.router != nil {
		f.router.Close()
	}
	f.closeNodes()
}

func (f *Fleet) closeNodes() {
	for _, n := range f.nodes {
		n.Close()
	}
	f.nodes = nil
}
