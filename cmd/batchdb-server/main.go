// Command batchdb-server hosts a BatchDB instance loaded with the
// CH-benCHmark schema and exposes the single system interface over a
// line-oriented TCP protocol — one connection can submit both
// transactions and analytical queries without addressing replicas.
//
//	batchdb-server -listen 127.0.0.1:7070 -warehouses 2 \
//	    -metrics-addr 127.0.0.1:9464
//
// Protocol (one request per line, tab-separated response):
//
//	NEWORDER <w> <d> <c>          run a New-Order with random lines
//	PAYMENT <w> <d> <amount>      run a Payment by customer id
//	DELIVERY <w>                  run a Delivery
//	ORDERSTATUS <w> <d>           run an Order-Status for a random customer
//	STOCKLEVEL <w> <d> <t>        run a Stock-Level with threshold t
//	QUERY <Q2|Q3|...|Q20>         run one CH analytical query
//	LOAD <rows> [OFF]             bulk-load rows into the scratch table
//	                              through the SLO-governed ingest path
//	                              (OFF = ungoverned, for comparison)
//	CHECKPOINT                    force a checkpoint (data-dir mode)
//	STATS                         one-line rendering of the metrics registry
//	FLEET                         per-member health and routing state (fleet mode)
//	KILL <i>                      sever member i's replication feed (fleet drill)
//	QUIT
//
// With -fleet N the analytical side becomes a router-fronted fleet of N
// remote replica nodes (each bootstrapped over the replication
// transport); QUERY is then routed under -query-deadline and
// -max-staleness, retried across members on failure, and answers beyond
// the bound come back flagged stale rather than silently old.
//
// The server is a batchdb.DB: its flags are the DB's settings, its
// tables and procedures are created through the DB, and -fleet serves
// the DB's replication feed to a batchdb.Fleet. With -metrics-addr set,
// the DB's registry is served over HTTP as Prometheus text at /metrics
// (liveness at /healthz).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"batchdb"
	"batchdb/internal/chbench"
	"batchdb/internal/checkpoint"
	"batchdb/internal/ingest"
	"batchdb/internal/mvcc"
	"batchdb/internal/tpcc"
)

// bulkTableID is the scratch table LOAD ingests into. TPC-C and
// CH-benCHmark own 1..12; 100 keeps clear of future schema growth.
const bulkTableID batchdb.TableID = 100

// bulkSchema describes the LOAD scratch table: a sequential id and a
// payload value, primary key on id.
func bulkSchema() *batchdb.Schema {
	return batchdb.NewSchema(bulkTableID, "bulk", []batchdb.Column{
		{Name: "id", Type: batchdb.Int64},
		{Name: "val", Type: batchdb.Int64},
	}, []int{0})
}

// options are the server's flags: the engine's settings bound straight
// onto batchdb.Config and the fleet's onto batchdb.FleetConfig, plus the
// few the server alone reads.
type options struct {
	db         batchdb.Config
	fleet      batchdb.FleetConfig
	budget     batchdb.FleetBudget
	listen     string
	warehouses int
}

// server is one running batchdb-server instance: the database, its
// CH-benCHmark tables, the TCP listener and, in fleet mode, the
// router-fronted replica fleet.
type server struct {
	db    *batchdb.DB
	tpcc  *tpcc.DB
	ln    net.Listener
	fleet *batchdb.Fleet // nil without -fleet
	// budget is every routed query's staleness bound (fleet mode).
	budget batchdb.FleetBudget
	// Bulk-ingest state: LOAD's chunk size, the next free id in the
	// scratch table, and a mutex serializing loads (one governed stream
	// at a time).
	chunkRows  int
	nextBulkID int64
	loadMu     sync.Mutex
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", "127.0.0.1:7070", "address to serve")
	flag.IntVar(&o.warehouses, "warehouses", 2, "warehouse count (bench scale)")
	flag.StringVar(&o.db.DataDir, "data-dir", "", "durable data directory: segmented WAL + checkpoints + crash recovery (empty = no durability)")
	flag.BoolVar(&o.db.WALSync, "wal-sync", false, "fsync the WAL on every group commit")
	flag.Int64Var(&o.db.CheckpointEveryVIDs, "checkpoint-vids", 50000, "checkpoint every N committed transactions")
	flag.Int64Var(&o.db.WALSegmentBytes, "wal-segment-bytes", 16<<20, "WAL segment rotation threshold")
	flag.IntVar(&o.db.OLAPWorkers, "olap-workers", 4, "analytical scan/build/apply worker count")
	flag.StringVar(&o.db.MetricsAddr, "metrics-addr", "", "HTTP metrics endpoint address (/metrics + /healthz; empty = disabled)")
	flag.IntVar(&o.fleet.Replicas, "fleet", 0, "route QUERY across N remote replica nodes (0 = single in-process replica)")
	flag.DurationVar(&o.fleet.Router.Deadline, "query-deadline", 2*time.Second, "fleet mode: per-query routing deadline")
	flag.DurationVar(&o.budget.MaxStaleness, "max-staleness", time.Second, "fleet mode: snapshot-age bound; older answers come back flagged stale")
	flag.IntVar(&o.db.IngestChunkRows, "ingest-chunk-rows", 1024, "LOAD: rows per ingest chunk (one chunk = one transaction = one WAL record)")
	flag.Parse()

	s, err := newServer(o)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on %s", s.ln.Addr())
	if addr := s.db.MetricsAddr(); addr != "" {
		log.Printf("metrics on http://%s/metrics", addr)
	}
	s.serveLoop()
}

// newServer opens, recovers (data-dir mode) and starts the database, then
// binds the TCP listener; serveLoop accepts connections.
func newServer(o options) (*server, error) {
	o.db.Partitions = 8
	o.db.DisableReplication = o.fleet.Replicas > 0
	db, err := batchdb.Open(o.db)
	if err != nil {
		return nil, err
	}
	s := &server{db: db, budget: o.budget, chunkRows: o.db.IngestChunkRows}
	s.budget.StalePolicy = batchdb.StaleServe
	if err := s.start(o); err != nil {
		s.close()
		return nil, err
	}
	if s.ln, err = net.Listen("tcp", o.listen); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// start creates the tables and procedures, loads or recovers the data,
// starts the database and, with -fleet, connects the replica fleet.
func (s *server) start(o options) error {
	replicated := tpcc.ReplicatedTables()
	analytical := make(map[batchdb.TableID]bool)
	for _, id := range chbench.Tables() {
		analytical[id] = true
	}
	// The fleet's nodes hold the same analytical tables as a local
	// replica would, keyed the same way.
	var replicaTables []batchdb.ReplicaTable
	var createErr error
	s.tpcc = tpcc.Build(tpcc.BenchScale(o.warehouses), s.db.Store(),
		func(schema *batchdb.Schema, key batchdb.KeyFunc, hint int) *mvcc.Table {
			t, err := s.db.CreateTable(schema, key, batchdb.TableOptions{
				Replicate:    replicated[schema.ID],
				Analytical:   analytical[schema.ID],
				CapacityHint: hint,
			})
			if err != nil {
				// Build needs a table to add indexes to; the error
				// fails the start once Build returns.
				createErr = errors.Join(createErr, err)
				return mvcc.NewTable(schema, key, hint)
			}
			if analytical[schema.ID] {
				replicaTables = append(replicaTables, batchdb.ReplicaTable{Schema: schema, CapacityHint: hint})
			}
			return t.OLTP
		})
	if createErr != nil {
		return createErr
	}
	// The LOAD scratch table exists from boot so WAL replay can find it
	// (recovery may re-execute ingest chunks from a prior run).
	bs := bulkSchema()
	if _, err := s.db.CreateTable(bs, func(tup []byte) uint64 {
		return uint64(bs.GetInt64(tup, 0))
	}, batchdb.TableOptions{CapacityHint: 4096}); err != nil {
		return err
	}
	for name, p := range tpcc.Procs(s.tpcc, false) {
		if err := s.db.Register(name, p); err != nil {
			return err
		}
	}
	// A checkpoint replaces the seed: recovery restores it instead of
	// regenerating TPC-C rows.
	seed, err := s.db.NeedsSeed()
	if err != nil {
		return err
	}
	if seed {
		log.Printf("loading TPC-C (%d warehouses)...", o.warehouses)
		if err := tpcc.Generate(s.tpcc, 1); err != nil {
			return err
		}
	}
	if o.db.DataDir != "" {
		info, err := s.db.RecoverDataDir()
		if err != nil {
			return err
		}
		log.Printf("data-dir %s: checkpoint vid=%d, replayed %d commands in %v (fellback=%v)",
			o.db.DataDir, info.CheckpointVID, info.Replayed, info.ReplayTime, info.FellBack)
	}
	if err := s.db.Start(); err != nil {
		return err
	}
	s.nextBulkID = recoverBulkNext(s.db.Store())
	if o.fleet.Replicas == 0 {
		return nil
	}
	// Fleet mode: the primary feeds N remote replica nodes over the
	// replication transport; every (re)connecting node gets a fresh
	// snapshot, so a node reconnecting after KILL resyncs by itself.
	addr, err := s.db.ServeReplicas("127.0.0.1:0")
	if err != nil {
		return err
	}
	log.Printf("replication feed on %s (%d nodes)", addr, o.fleet.Replicas)
	o.fleet.Node = batchdb.ReplicaNodeConfig{
		Partitions: o.db.Partitions,
		Workers:    o.db.OLAPWorkers,
		Metrics:    s.db.Metrics(),
	}
	o.fleet.Router.EjectStaleness = o.budget.MaxStaleness
	s.fleet, err = batchdb.ConnectFleet(addr, o.fleet, replicaTables)
	return err
}

// recoverBulkNext finds the first free id in the LOAD scratch table.
// Ids are handed out sequentially and chunks commit in order, so the
// resident keys always form a contiguous prefix; a doubling probe plus
// binary search finds its end without a full scan.
func recoverBulkNext(st *mvcc.Store) int64 {
	tx := st.BeginRO()
	defer tx.Abort()
	tbl := st.Table(bulkTableID)
	has := func(id int64) bool {
		_, ok := tx.Get(tbl, uint64(id))
		return ok
	}
	if !has(0) {
		return 0
	}
	hi := int64(1)
	for has(hi) {
		hi *= 2
	}
	lo := hi / 2 // has(lo) true, has(hi) false
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if has(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// serveLoop accepts client connections until the listener closes. Each
// connection's randomness is seeded by its accept ordinal, so a session
// replays the same arguments and queries on every run.
func (s *server) serveLoop() {
	for seed := int64(1); ; seed++ {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go s.serve(conn, seed)
	}
}

// close stops everything the server started, in dependency order.
func (s *server) close() {
	if s.ln != nil {
		s.ln.Close()
	}
	if s.fleet != nil {
		s.fleet.Close()
	}
	s.db.Close()
}

func (s *server) serve(conn net.Conn, seed int64) {
	defer conn.Close()
	rng := rand.New(rand.NewSource(seed))
	gen := chbench.NewGen(s.tpcc.Schemas, rng.Int63())
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	out := bufio.NewWriter(conn)
	defer out.Flush()
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "QUIT":
			fmt.Fprintln(out, "BYE")
			out.Flush()
			return
		case "STATS":
			// One line, rendered from the same registry /metrics serves.
			fmt.Fprintf(out, "OK\t%s\n", s.db.Metrics().RenderLine())
		case "NEWORDER":
			w, d, c := argN(fields, 1, 1), argN(fields, 2, 1), argN(fields, 3, 1)
			a := &tpcc.NewOrderArgs{WID: w, DID: d, CID: c, EntryD: time.Now().UnixNano()}
			for i := 0; i < 5; i++ {
				a.Lines = append(a.Lines, tpcc.OrderLineReq{
					ItemID: 1 + rng.Int63n(int64(s.tpcc.Scale.Items)), SupplyWID: w, Quantity: 1 + rng.Int63n(10),
				})
			}
			reply(out, s.db.Exec(tpcc.ProcNewOrder, a.Encode()))
		case "PAYMENT":
			w, d := argN(fields, 1, 1), argN(fields, 2, 1)
			amt := float64(argN(fields, 3, 100))
			a := &tpcc.PaymentArgs{WID: w, DID: d, CWID: w, CDID: d,
				CID: 1 + rng.Int63n(int64(s.tpcc.Scale.CustomersPerDistrict)), Amount: amt, Date: time.Now().UnixNano()}
			reply(out, s.db.Exec(tpcc.ProcPayment, a.Encode()))
		case "DELIVERY":
			a := &tpcc.DeliveryArgs{WID: argN(fields, 1, 1), CarrierID: 1 + rng.Int63n(10), Date: time.Now().UnixNano()}
			reply(out, s.db.Exec(tpcc.ProcDelivery, a.Encode()))
		case "ORDERSTATUS":
			a := &tpcc.OrderStatusArgs{WID: argN(fields, 1, 1), DID: argN(fields, 2, 1),
				CID: 1 + rng.Int63n(int64(s.tpcc.Scale.CustomersPerDistrict))}
			reply(out, s.db.Exec(tpcc.ProcOrderStatus, a.Encode()))
		case "STOCKLEVEL":
			a := &tpcc.StockLevelArgs{WID: argN(fields, 1, 1), DID: argN(fields, 2, 1), Threshold: argN(fields, 3, 15)}
			reply(out, s.db.Exec(tpcc.ProcStockLevel, a.Encode()))
		case "LOAD":
			n := argN(fields, 1, 10_000)
			if n <= 0 {
				fmt.Fprintln(out, "ERR\tLOAD needs a positive row count")
				break
			}
			governed := !(len(fields) > 2 && strings.EqualFold(fields[2], "OFF"))
			rep, err := s.bulkLoad(n, governed)
			if err != nil {
				fmt.Fprintf(out, "ERR\t%v\n", err)
				break
			}
			fmt.Fprintf(out, "OK\trows=%d chunks=%d retries=%d elapsed=%v rate=%.0frows/s baseline_p99=%v bound=%v max_window_p99=%v throttles=%d\n",
				rep.Rows, rep.Chunks, rep.Retries, rep.Elapsed.Round(time.Millisecond),
				rep.RowsPerSec, rep.BaselineP99.Round(time.Microsecond),
				rep.Bound.Round(time.Microsecond), rep.MaxWindowP99.Round(time.Microsecond),
				rep.Throttles)
		case "CHECKPOINT":
			if s.db.DurabilityStats() == nil {
				fmt.Fprintln(out, "ERR\tno -data-dir configured")
				break
			}
			vid, err := s.db.Checkpoint()
			switch {
			case errors.Is(err, checkpoint.ErrNoProgress):
				fmt.Fprintln(out, "OK\tno progress since last checkpoint")
			case err != nil:
				fmt.Fprintf(out, "ERR\t%v\n", err)
			default:
				fmt.Fprintf(out, "OK\tvid=%d\n", vid)
			}
		case "QUERY":
			name := "Q10"
			if len(fields) > 1 {
				name = strings.ToUpper(fields[1])
			}
			if !slices.Contains(chbench.QueryNames, name) {
				fmt.Fprintf(out, "ERR\tunknown query %q\n", name)
				break
			}
			if s.fleet != nil {
				res, meta, err := s.fleet.Query(context.Background(), gen.ByName(name), s.budget)
				if err != nil || res.Err != nil {
					fmt.Fprintf(out, "ERR\t%v%v\n", err, res.Err)
					break
				}
				fmt.Fprintf(out, "OK\t%s rows=%d values=%v member=%d attempts=%d stale=%v staleness=%v\n",
					name, res.Rows, res.Values, meta.Backend, meta.Attempts, meta.Stale,
					time.Duration(meta.StalenessNanos).Round(time.Millisecond))
				break
			}
			res, err := s.db.Query(gen.ByName(name))
			if err != nil || res.Err != nil {
				fmt.Fprintf(out, "ERR\t%v%v\n", err, res.Err)
				break
			}
			fmt.Fprintf(out, "OK\t%s rows=%d values=%v\n", name, res.Rows, res.Values)
		case "KILL":
			if s.fleet == nil {
				fmt.Fprintln(out, "ERR\tKILL requires -fleet mode")
				break
			}
			i := int(argN(fields, 1, 0))
			if i < 0 || i >= len(s.fleet.Nodes()) {
				fmt.Fprintf(out, "ERR\tno member %d\n", i)
				break
			}
			s.fleet.Nodes()[i].KillConnection()
			fmt.Fprintf(out, "OK\tsevered member %d's feed; it reconnects and resyncs\n", i)
		case "FLEET":
			if s.fleet == nil {
				fmt.Fprintln(out, "ERR\tFLEET requires -fleet mode")
				break
			}
			router := s.fleet.Router()
			st := router.Stats()
			fmt.Fprintf(out, "OK\tqueries=%d answered=%d rejected=%d shed=%d retries=%d ejections=%d readmits=%d ejected_now=%d",
				st.Queries.Load(), st.Answered.Load(), st.Rejected.Load(), st.Shed.Load(),
				st.Retries.Load(), st.Ejections.Load(), st.Readmits.Load(), router.EjectedCount())
			for i := range s.fleet.Nodes() {
				h := router.MemberHealth(i)
				fmt.Fprintf(out, " member%d[connected=%v vid=%d staleness=%v queue=%d]",
					i, h.Connected, h.InstalledVID,
					time.Duration(h.StalenessNanos).Round(time.Millisecond), h.QueueDepth)
			}
			fmt.Fprintln(out)
		default:
			fmt.Fprintf(out, "ERR\tunknown command %q\n", fields[0])
		}
		out.Flush()
	}
}

// bulkLoad runs one LOAD through the governed ingest path: n fresh
// sequential rows chunked into transactions, paced by the SLO governor
// (or open-throttle when governed is false). Loads serialize — one
// governed stream at a time keeps the feedback loop's signal clean.
func (s *server) bulkLoad(n int64, governed bool) (ingest.Report, error) {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	bs := bulkSchema()
	start := s.nextBulkID
	next := start
	l := ingest.NewLoader(s.db.Engine(), bulkTableID, ingest.Config{
		ChunkRows:       s.chunkRows,
		DisableGovernor: !governed,
	})
	rep, err := l.Load(func() ([]byte, bool) {
		if next >= start+n {
			return nil, false
		}
		tup := bs.NewTuple()
		bs.PutInt64(tup, 0, next)
		bs.PutInt64(tup, 1, next*7+3)
		next++
		return tup, true
	})
	// Advance past the acknowledged prefix even on error, so a retried
	// LOAD never collides with rows a failed one did commit.
	s.nextBulkID = start + int64(rep.Rows)
	return rep, err
}

func argN(fields []string, i int, def int64) int64 {
	if i >= len(fields) {
		return def
	}
	v, err := strconv.ParseInt(fields[i], 10, 64)
	if err != nil {
		return def
	}
	return v
}

func reply(out *bufio.Writer, r batchdb.Response) {
	switch {
	case r.Err == nil:
		fmt.Fprintf(out, "OK\tvid=%d\n", r.CommitVID)
	case errors.Is(r.Err, tpcc.ErrRollback):
		fmt.Fprintln(out, "OK\trollback (unused item)")
	case errors.Is(r.Err, batchdb.ErrConflict):
		fmt.Fprintln(out, "RETRY\twrite-write conflict")
	default:
		fmt.Fprintf(out, "ERR\t%v\n", r.Err)
	}
}
