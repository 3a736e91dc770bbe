// Chaos soak: a 3-node fleet under a live OLTP feed while connections
// are killed, severed, and delayed at random. Asserts the router's
// robustness contract — no lost answers (every query returns within its
// deadline), no silently stale results (anything beyond the bound is
// flagged Stale or rejected), and counter/gauge consistency — then that
// the fleet converges back to fresh answers once the chaos stops.
//
// External test package: it wires real nodes (internal/fleet/node),
// which imports internal/fleet.
package fleet_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batchdb/internal/fleet"
	"batchdb/internal/fleet/node"
	"batchdb/internal/mvcc"
	"batchdb/internal/network"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/oltp"
	"batchdb/internal/replica"
	"batchdb/internal/storage"
)

func putArgs(k, v int64) []byte {
	b := make([]byte, 16)
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(k) >> (8 * i))
		b[8+i] = byte(uint64(v) >> (8 * i))
	}
	return b
}

// chaosPrimary is a served kv primary: a "put" procedure, the replica
// server, and a live push feed — the root API's ServeReplicas scaled
// down to one table.
type chaosPrimary struct {
	engine *oltp.Engine
	schema *storage.Schema
	addr   string
}

func newChaosPrimary(t *testing.T) *chaosPrimary {
	t.Helper()
	schema := storage.NewSchema(1, "kv", []storage.Column{
		{Name: "k", Type: storage.Int64},
		{Name: "v", Type: storage.Int64},
	}, []int{0})
	store := mvcc.NewStore()
	tbl := store.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 4096)
	engine, err := oltp.New(store, oltp.Config{Workers: 2, PushPeriod: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	engine.Register("put", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, schema.GetInt64(args, 0))
		schema.PutInt64(tup, 1, schema.GetInt64(args, 1))
		err := tx.Insert(tbl, tup)
		return nil, err
	})
	l, err := network.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := replica.Serve(l, engine, []storage.TableID{1})
	engine.Start()
	t.Cleanup(func() {
		srv.Close()
		engine.Close()
	})
	return &chaosPrimary{engine: engine, schema: schema, addr: srv.Addr()}
}

func (p *chaosPrimary) connectNode(t *testing.T) *node.Node {
	t.Helper()
	rep := olap.NewReplica(2)
	rep.CreateTable(p.schema, 4096)
	n, err := node.Connect(p.addr, rep, node.Config{
		Workers: 2,
		Link: replica.SupervisorConfig{
			Retry:          network.RetryPolicy{Attempts: 30, BaseDelay: 5 * time.Millisecond},
			ReconnectPause: 10 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func TestChaosSoak(t *testing.T) {
	soak := 4 * time.Second
	clients := 6
	if testing.Short() {
		soak = 1500 * time.Millisecond
		clients = 4
	}
	seed := time.Now().UnixNano()
	t.Logf("chaos seed %d", seed)

	p := newChaosPrimary(t)
	const replicas = 3
	nodes := make([]*node.Node, replicas)
	backends := make([]fleet.Backend[*exec.Query, exec.Result], replicas)
	for i := range nodes {
		nodes[i] = p.connectNode(t)
		backends[i] = nodes[i]
	}
	// The bound is short enough that a held-down replica's answers
	// exceed it mid-soak, and the deadline short enough that a wedged
	// replica times out — so staleness enforcement, retries, and the
	// breaker all see real traffic.
	const bound = 600 * time.Millisecond
	router, err := fleet.NewRouter[*exec.Query, exec.Result](backends, fleet.Config{
		Deadline:         1 * time.Second,
		MaxAttempts:      3,
		RetryBackoff:     2 * time.Millisecond,
		FailureThreshold: 3,
		ProbeBackoff:     20 * time.Millisecond,
		EjectStaleness:   bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Registered after the nodes' own cleanups, so it runs before their
	// Close: a failed assertion must not leave teardown fighting injected
	// faults (a wedged connection sleeps on every frame of the re-bootstrap
	// Close waits out, which stretched failing runs to minutes).
	clearFaults := func() {
		for _, n := range nodes {
			n.InjectFault(nil)
		}
	}
	t.Cleanup(clearFaults)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// busy[i] holds the start time (UnixNano) of the call goroutine i is
	// inside — writers first, then query clients — or 0 between calls, so
	// a drain that misses its deadline can name who is stuck and for how
	// long.
	const writers = 2
	busy := make([]atomic.Int64, writers+clients)
	stuck := func() string {
		var b strings.Builder
		for i := range busy {
			if since := busy[i].Load(); since != 0 {
				role, id := "writer", i
				if i >= writers {
					role, id = "query client", i-writers
				}
				fmt.Fprintf(&b, "\n  %s %d in flight for %v", role, id, time.Since(time.Unix(0, since)).Round(time.Millisecond))
			}
		}
		return b.String()
	}

	// OLTP writers: a monotone stream of inserts with unique keys. The
	// bound on what a replica may count is the keys handed out, not the
	// rows acked: a replica can install a commit before the writer that
	// issued it is rescheduled (or while its Exec is still held up behind
	// a wedged publisher), so visibility may precede the client's ack. A
	// key is taken before its Exec starts, so nextKey read after an answer
	// returns is at least the rows any replica had seen when it computed
	// that answer.
	var nextKey atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := nextKey.Add(1)
				busy[w].Store(time.Now().UnixNano())
				r := p.engine.Exec("put", putArgs(k, k))
				busy[w].Store(0)
				if r.Err != nil {
					t.Errorf("put: %v", r.Err)
					return
				}
			}
		}(w)
	}

	// Chaos injector: every few milliseconds, hit a random node with a
	// connection kill, a one-shot sever, a held-down outage longer than
	// the staleness bound (exercising stale gating/serving), or a wedge
	// delay longer than the query deadline (exercising timeouts, retry,
	// and the breaker).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := rand.New(rand.NewSource(seed))
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(20+rnd.Intn(60)) * time.Millisecond):
			}
			n := nodes[rnd.Intn(len(nodes))]
			switch rnd.Intn(4) {
			case 0:
				n.KillConnection()
			case 1:
				n.InjectFault(network.SeverAfter(network.FaultRecv, 1+rnd.Intn(20)))
			case 2:
				// Hold the node down past the staleness bound: repeated
				// kills defeat its reconnect loop for outage long.
				outage := bound + time.Duration(rnd.Intn(600))*time.Millisecond
				wg.Add(1)
				go func() {
					defer wg.Done()
					end := time.Now().Add(outage)
					for time.Now().Before(end) {
						n.KillConnection()
						select {
						case <-stop:
							return
						case <-time.After(10 * time.Millisecond):
						}
					}
				}()
			case 3:
				n.InjectFault(network.DelayAll(network.FaultRecv,
					time.Duration(500+rnd.Intn(1500))*time.Millisecond))
			}
		}
	}()

	// Query clients: closed loop against the router. Every call must
	// return (the deadline guarantees it); successes must be consistent
	// (count ≤ keys handed out) and never silently beyond the bound.
	countQ := func() *exec.Query {
		return &exec.Query{Name: "count", Driver: 1, Aggs: []exec.AggSpec{{Kind: exec.Count}}}
	}
	var launched, returned, answered, staleServed, boundViolations, tooMany atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				launched.Add(1)
				busy[writers+c].Store(time.Now().UnixNano())
				res, meta, err := router.Query(context.Background(), countQ(), fleet.Budget{
					MaxStaleness: bound,
					StalePolicy:  fleet.StaleServe,
				})
				busy[writers+c].Store(0)
				returned.Add(1)
				if err != nil {
					continue // typed rejection, not a lost answer
				}
				answered.Add(1)
				if meta.Stale {
					staleServed.Add(1)
				} else if meta.StalenessNanos > int64(bound) {
					boundViolations.Add(1)
				}
				if res.Err == nil && int64(res.Values[0]) > nextKey.Load() {
					tooMany.Add(1)
				}
			}
		}(c)
	}

	time.Sleep(soak)
	close(stop)
	// One fixed deadline covers everything after stop — the drain and the
	// convergence check below — so a bad run fails in bounded time with
	// the stuck party named instead of stacking per-phase timeouts.
	const settle = 20 * time.Second
	deadline := time.Now().Add(settle)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Until(deadline)):
		t.Fatalf("workload did not drain within %v of stop (a call outlived its deadline):%s", settle, stuck())
	}

	if launched.Load() != returned.Load() {
		t.Fatalf("lost answers: launched %d, returned %d", launched.Load(), returned.Load())
	}
	if answered.Load() == 0 {
		t.Fatal("no query answered during the soak")
	}
	if v := boundViolations.Load(); v != 0 {
		t.Fatalf("%d results exceeded the staleness bound without a Stale flag", v)
	}
	if v := tooMany.Load(); v != 0 {
		t.Fatalf("%d results counted rows the primary never committed", v)
	}
	st := router.Stats()
	if st.Queries.Load() != st.Answered.Load()+st.Rejected.Load()+st.Shed.Load() {
		t.Fatalf("counter drift: queries %d != answered %d + rejected %d + shed %d",
			st.Queries.Load(), st.Answered.Load(), st.Rejected.Load(), st.Shed.Load())
	}
	if int(st.Ejections.Load())-int(st.Readmits.Load()) != router.EjectedCount() {
		t.Fatalf("breaker gauge drift: ejections %d, readmits %d, currently ejected %d",
			st.Ejections.Load(), st.Readmits.Load(), router.EjectedCount())
	}
	t.Logf("soak: %d queries, %d answered (%d stale-served), %d rejected; %d ejections, %d probes, %d readmits, %d retries",
		st.Queries.Load(), st.Answered.Load(), staleServed.Load(), st.Rejected.Load(),
		st.Ejections.Load(), st.Probes.Load(), st.Readmits.Load(), st.Retries.Load())

	// After the chaos stops, the fleet must converge: faults cleared,
	// every node reconnects, and a bounded-staleness query succeeds
	// fresh.
	clearFaults()
	for {
		res, meta, err := router.Query(context.Background(), countQ(), fleet.Budget{
			MaxStaleness: bound,
		})
		if err == nil && !meta.Stale && res.Err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not recover within %v of stop: err=%v meta=%+v", settle, err, meta)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
