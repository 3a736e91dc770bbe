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
// With -metrics-addr set, the same registry is served over HTTP as
// Prometheus text at /metrics (liveness at /healthz).
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

	"batchdb/internal/chbench"
	"batchdb/internal/checkpoint"
	"batchdb/internal/fleet"
	"batchdb/internal/fleet/node"
	"batchdb/internal/ingest"
	"batchdb/internal/mvcc"
	"batchdb/internal/network"
	"batchdb/internal/obs"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/oltp"
	"batchdb/internal/replica"
	"batchdb/internal/storage"
	"batchdb/internal/tpcc"
)

// bulkTableID is the scratch table LOAD ingests into. TPC-C and
// CH-benCHmark own 1..12; 100 keeps clear of future schema growth.
const bulkTableID storage.TableID = 100

// bulkSchema describes the LOAD scratch table: a sequential id and a
// payload value, primary key on id.
func bulkSchema() *storage.Schema {
	return storage.NewSchema(bulkTableID, "bulk", []storage.Column{
		{Name: "id", Type: storage.Int64},
		{Name: "val", Type: storage.Int64},
	}, []int{0})
}

// serverConfig collects the flag values so tests can build servers
// without a flag set.
type serverConfig struct {
	listen      string
	warehouses  int
	dataDir     string
	walSync     bool
	ckptVIDs    uint64
	segBytes    int64
	olapWorkers int
	metricsAddr string
	// Fleet mode: N router-fronted remote replica nodes instead of the
	// single in-process replica.
	fleet         int
	queryDeadline time.Duration
	maxStaleness  time.Duration
	// ingestChunkRows is LOAD's chunk size (0 = the loader's default).
	ingestChunkRows int
}

// server is one running batchdb-server instance: the engine pair, the
// TCP listener, the metrics registry and its optional HTTP exporter.
type server struct {
	db     *tpcc.DB
	engine *oltp.Engine
	sched  *olap.Scheduler[*exec.Query, exec.Result]
	dur    *checkpoint.State
	reg    *obs.Registry
	msrv   *obs.Server
	ln     net.Listener
	// Fleet mode (nil/empty otherwise): the replication feed server,
	// the member nodes, the router, and the per-query budget.
	repSrv *replica.Server
	nodes  []*node.Node
	router *fleet.Router[*exec.Query, exec.Result]
	budget fleet.Budget
	// Bulk-ingest state: LOAD's chunk size, the next free id in the
	// scratch table, and a mutex serializing loads (one governed stream
	// at a time).
	chunkRows  int
	nextBulkID int64
	loadMu     sync.Mutex
}

func main() {
	var cfg serverConfig
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:7070", "address to serve")
	flag.IntVar(&cfg.warehouses, "warehouses", 2, "warehouse count (bench scale)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durable data directory: segmented WAL + checkpoints + crash recovery (empty = no durability)")
	flag.BoolVar(&cfg.walSync, "wal-sync", false, "fsync the WAL on every group commit")
	flag.Uint64Var(&cfg.ckptVIDs, "checkpoint-vids", 50000, "checkpoint every N committed transactions")
	flag.Int64Var(&cfg.segBytes, "wal-segment-bytes", 16<<20, "WAL segment rotation threshold")
	flag.IntVar(&cfg.olapWorkers, "olap-workers", 4, "analytical scan/build/apply worker count")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "HTTP metrics endpoint address (/metrics + /healthz; empty = disabled)")
	flag.IntVar(&cfg.fleet, "fleet", 0, "route QUERY across N remote replica nodes (0 = single in-process replica)")
	flag.DurationVar(&cfg.queryDeadline, "query-deadline", 2*time.Second, "fleet mode: per-query routing deadline")
	flag.DurationVar(&cfg.maxStaleness, "max-staleness", time.Second, "fleet mode: snapshot-age bound; older answers come back flagged stale")
	flag.IntVar(&cfg.ingestChunkRows, "ingest-chunk-rows", 1024, "LOAD: rows per ingest chunk (one chunk = one transaction = one WAL record)")
	flag.Parse()

	s, err := newServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on %s", s.ln.Addr())
	if s.msrv != nil {
		log.Printf("metrics on http://%s/metrics", s.msrv.Addr())
	}
	s.serveLoop()
}

// newServer builds, recovers (data-dir mode), and starts a server. The
// TCP listener is bound before return; serveLoop accepts connections.
func newServer(cfg serverConfig) (*server, error) {
	db := tpcc.NewDB(tpcc.BenchScale(cfg.warehouses))
	seed := true
	if cfg.dataDir != "" {
		has, err := checkpoint.DirHasCheckpoint(cfg.dataDir)
		if err != nil {
			return nil, err
		}
		// A checkpoint replaces the seed: recovery restores it instead
		// of regenerating TPC-C rows.
		seed = !has
	}
	if seed {
		log.Printf("loading TPC-C (%d warehouses)...", cfg.warehouses)
		if err := tpcc.Generate(db, 1); err != nil {
			return nil, err
		}
	}
	// The LOAD scratch table exists from boot so WAL replay can find it
	// (recovery may re-execute ingest chunks from a prior run).
	bs := bulkSchema()
	db.Store.CreateTable(bs, func(tup []byte) uint64 {
		return uint64(bs.GetInt64(tup, 0))
	}, 4096)
	engine, err := oltp.New(db.Store, oltp.Config{
		Workers:       4,
		Replicated:    tpcc.ReplicatedTables(),
		FieldSpecific: true,
	})
	if err != nil {
		return nil, err
	}
	tpcc.RegisterProcs(engine, db, false)
	ingest.RegisterProc(engine)
	var dur *checkpoint.State
	if cfg.dataDir != "" {
		st, info, err := checkpoint.Boot(engine, checkpoint.BootConfig{
			Dir:          cfg.dataDir,
			Sync:         cfg.walSync,
			SegmentBytes: cfg.segBytes,
		})
		if err != nil {
			return nil, err
		}
		dur = st
		if info.Fresh {
			log.Printf("data-dir %s initialized", cfg.dataDir)
		} else {
			log.Printf("recovered: checkpoint vid=%d, replayed %d commands in %v (fellback=%v), watermark=%d",
				info.CheckpointVID, info.Replayed, info.ReplayTime, info.FellBack, info.WatermarkVID)
		}
	}
	s := &server{db: db, engine: engine, dur: dur, reg: obs.NewRegistry(), chunkRows: cfg.ingestChunkRows}
	s.nextBulkID = recoverBulkNext(engine)
	s.budget = fleet.Budget{MaxStaleness: cfg.maxStaleness, StalePolicy: fleet.StaleServe}
	engine.RegisterMetrics(s.reg)
	if dur != nil {
		obs.RegisterDurability(s.reg, dur.Stats())
	}

	if cfg.fleet > 0 {
		// Fleet mode: the engine feeds N remote replica nodes over the
		// replication transport; QUERY routes across them.
		engine.Start()
		if err := s.startFleet(cfg); err != nil {
			s.close()
			return nil, err
		}
	} else {
		rep, err := chbench.NewReplica(db, 8)
		if err != nil {
			return nil, err
		}
		engine.SetSink(rep)
		layOut(rep)
		s.sched = exec.NewScheduler(rep, engine, cfg.olapWorkers)
		s.sched.RegisterMetrics(s.reg, obs.L("class", "chbench"))
		s.sched.Start()
		engine.Start()
	}

	if cfg.metricsAddr != "" {
		msrv, err := obs.Serve(cfg.metricsAddr, s.reg)
		if err != nil {
			s.close()
			return nil, err
		}
		s.msrv = msrv
	}
	if dur != nil {
		dur.StartRunner(engine, checkpoint.Policy{EveryVIDs: cfg.ckptVIDs})
	}
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		s.close()
		return nil, err
	}
	s.ln = ln
	return s, nil
}

// layOut gives a replica the layout every replica serves from: zone maps
// with one block per scan morsel, so block verdicts map one-to-one onto
// morsels, and encoded column vectors on those blocks. Columns activate
// lazily as queries push predicates on them (the scheduler's apply
// rounds pick up the requests).
func layOut(rep *olap.Replica) {
	rep.EnableZoneMaps(exec.DefaultMorselTuples)
	rep.EnableCompression()
}

// recoverBulkNext finds the first free id in the LOAD scratch table.
// Ids are handed out sequentially and chunks commit in order, so the
// resident keys always form a contiguous prefix; a doubling probe plus
// binary search finds its end without a full scan.
func recoverBulkNext(e *oltp.Engine) int64 {
	tx := e.Store().BeginRO()
	defer tx.Abort()
	tbl := e.Store().Table(bulkTableID)
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

// startFleet binds the replication feed, bootstraps cfg.fleet remote
// replica nodes from the primary's snapshot, and fronts them with the
// fault-tolerant router. The engine must already be started (the
// publisher serves live syncs).
func (s *server) startFleet(cfg serverConfig) error {
	repLn, err := network.Listen("127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	// Every (re)connecting node gets a publisher on the live feed plus a
	// fresh snapshot — reconnect after KILL resyncs automatically.
	s.repSrv = replica.Serve(repLn, s.engine, chbench.Tables())
	s.repSrv.RegisterMetrics(s.reg)
	log.Printf("replication feed on %s (%d nodes)", s.repSrv.Addr(), cfg.fleet)

	backends := make([]fleet.Backend[*exec.Query, exec.Result], 0, cfg.fleet)
	for i := 0; i < cfg.fleet; i++ {
		rep := chbench.EmptyReplica(s.db, 8)
		layOut(rep)
		n, err := node.Connect(s.repSrv.Addr(), rep, node.Config{
			Workers: cfg.olapWorkers,
			Link: replica.SupervisorConfig{
				Retry:          network.RetryPolicy{Attempts: 50, BaseDelay: 10 * time.Millisecond},
				ReconnectPause: 50 * time.Millisecond,
			},
			Metrics:       s.reg,
			MetricsLabels: []obs.Label{obs.L("class", "chbench"), obs.L("member", strconv.Itoa(i))},
		})
		if err != nil {
			return fmt.Errorf("fleet node %d: %w", i, err)
		}
		s.nodes = append(s.nodes, n)
		backends = append(backends, n)
	}
	router, err := fleet.NewRouter[*exec.Query, exec.Result](backends, fleet.Config{
		Deadline:       cfg.queryDeadline,
		EjectStaleness: cfg.maxStaleness,
	})
	if err != nil {
		return err
	}
	s.router = router
	router.RegisterMetrics(s.reg, obs.L("class", "chbench"))
	return nil
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
	if s.msrv != nil {
		s.msrv.Close()
	}
	if s.dur != nil {
		s.dur.StopRunner()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
	if s.repSrv != nil {
		s.repSrv.Close()
	}
	if s.sched != nil {
		s.sched.Close()
	}
	s.engine.Close()
}

func (s *server) serve(conn net.Conn, seed int64) {
	defer conn.Close()
	rng := rand.New(rand.NewSource(seed))
	gen := chbench.NewGen(s.db.Schemas, rng.Int63())
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
			fmt.Fprintf(out, "OK\t%s\n", s.reg.RenderLine())
		case "NEWORDER":
			w, d, c := argN(fields, 1, 1), argN(fields, 2, 1), argN(fields, 3, 1)
			a := &tpcc.NewOrderArgs{WID: w, DID: d, CID: c, EntryD: time.Now().UnixNano()}
			for i := 0; i < 5; i++ {
				a.Lines = append(a.Lines, tpcc.OrderLineReq{
					ItemID: 1 + rng.Int63n(int64(s.db.Scale.Items)), SupplyWID: w, Quantity: 1 + rng.Int63n(10),
				})
			}
			reply(out, s.engine.Exec(tpcc.ProcNewOrder, a.Encode()))
		case "PAYMENT":
			w, d := argN(fields, 1, 1), argN(fields, 2, 1)
			amt := float64(argN(fields, 3, 100))
			a := &tpcc.PaymentArgs{WID: w, DID: d, CWID: w, CDID: d,
				CID: 1 + rng.Int63n(int64(s.db.Scale.CustomersPerDistrict)), Amount: amt, Date: time.Now().UnixNano()}
			reply(out, s.engine.Exec(tpcc.ProcPayment, a.Encode()))
		case "DELIVERY":
			a := &tpcc.DeliveryArgs{WID: argN(fields, 1, 1), CarrierID: 1 + rng.Int63n(10), Date: time.Now().UnixNano()}
			reply(out, s.engine.Exec(tpcc.ProcDelivery, a.Encode()))
		case "ORDERSTATUS":
			a := &tpcc.OrderStatusArgs{WID: argN(fields, 1, 1), DID: argN(fields, 2, 1),
				CID: 1 + rng.Int63n(int64(s.db.Scale.CustomersPerDistrict))}
			reply(out, s.engine.Exec(tpcc.ProcOrderStatus, a.Encode()))
		case "STOCKLEVEL":
			a := &tpcc.StockLevelArgs{WID: argN(fields, 1, 1), DID: argN(fields, 2, 1), Threshold: argN(fields, 3, 15)}
			reply(out, s.engine.Exec(tpcc.ProcStockLevel, a.Encode()))
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
			if s.dur == nil {
				fmt.Fprintln(out, "ERR\tno -data-dir configured")
				break
			}
			info, err := s.dur.Checkpoint(s.engine)
			switch {
			case errors.Is(err, checkpoint.ErrNoProgress):
				fmt.Fprintln(out, "OK\tno progress since last checkpoint")
			case err != nil:
				fmt.Fprintf(out, "ERR\t%v\n", err)
			default:
				fmt.Fprintf(out, "OK\tvid=%d rows=%d bytes=%d elapsed=%v\n",
					info.VID, info.Rows, info.Bytes, info.Elapsed)
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
			if s.router != nil {
				res, meta, err := s.router.Query(context.Background(), gen.ByName(name), s.budget)
				if err != nil || res.Err != nil {
					fmt.Fprintf(out, "ERR\t%v%v\n", err, res.Err)
					break
				}
				fmt.Fprintf(out, "OK\t%s rows=%d values=%v member=%d attempts=%d stale=%v staleness=%v\n",
					name, res.Rows, res.Values, meta.Backend, meta.Attempts, meta.Stale,
					time.Duration(meta.StalenessNanos).Round(time.Millisecond))
				break
			}
			res, err := s.sched.Query(gen.ByName(name))
			if err != nil || res.Err != nil {
				fmt.Fprintf(out, "ERR\t%v%v\n", err, res.Err)
				break
			}
			fmt.Fprintf(out, "OK\t%s rows=%d values=%v\n", name, res.Rows, res.Values)
		case "KILL":
			if s.router == nil {
				fmt.Fprintln(out, "ERR\tKILL requires -fleet mode")
				break
			}
			i := int(argN(fields, 1, 0))
			if i < 0 || i >= len(s.nodes) {
				fmt.Fprintf(out, "ERR\tno member %d\n", i)
				break
			}
			s.nodes[i].KillConnection()
			fmt.Fprintf(out, "OK\tsevered member %d's feed; it reconnects and resyncs\n", i)
		case "FLEET":
			if s.router == nil {
				fmt.Fprintln(out, "ERR\tFLEET requires -fleet mode")
				break
			}
			st := s.router.Stats()
			fmt.Fprintf(out, "OK\tqueries=%d answered=%d rejected=%d shed=%d retries=%d ejections=%d readmits=%d ejected_now=%d",
				st.Queries.Load(), st.Answered.Load(), st.Rejected.Load(), st.Shed.Load(),
				st.Retries.Load(), st.Ejections.Load(), st.Readmits.Load(), s.router.EjectedCount())
			for i := range s.nodes {
				h := s.router.MemberHealth(i)
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
	l := ingest.NewLoader(s.engine, bulkTableID, ingest.Config{
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

func reply(out *bufio.Writer, r oltp.Response) {
	switch {
	case r.Err == nil:
		fmt.Fprintf(out, "OK\tvid=%d\n", r.CommitVID)
	case errors.Is(r.Err, tpcc.ErrRollback):
		fmt.Fprintln(out, "OK\trollback (unused item)")
	case errors.Is(r.Err, mvcc.ErrConflict):
		fmt.Fprintln(out, "RETRY\twrite-write conflict")
	default:
		fmt.Fprintf(out, "ERR\t%v\n", r.Err)
	}
}
