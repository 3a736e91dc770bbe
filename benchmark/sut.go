package main

import (
	"fmt"
	"sync"
	"time"

	"batchdb/internal/chbench"
	"batchdb/internal/checkpoint"
	"batchdb/internal/ingest"
	"batchdb/internal/network"
	"batchdb/internal/obs"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/oltp"
	"batchdb/internal/replica"
	"batchdb/internal/storage"
	"batchdb/internal/tpcc"
)

// Fixed sizes of the system under test. Warehouses stay at 4 on every
// host so rows stay far above sessions; constant-size TPC-C keeps the
// replica's size independent of how fast the primary runs.
const (
	warehouses     = 4
	olapPartitions = 8     // the server's default
	checkpointVIDs = 50000 // the server's default -checkpoint-vids
	bulkTableID    = storage.TableID(100)
	flushPolicy    = "WAL written per group commit, no fsync (server default)"
)

var tpccProcs = []string{
	tpcc.ProcNewOrder, tpcc.ProcPayment, tpcc.ProcOrderStatus, tpcc.ProcDelivery, tpcc.ProcStockLevel,
}

// bulkSchema is the ingest scratch table, as cmd/batchdb-server declares it.
func bulkSchema() *storage.Schema {
	return storage.NewSchema(bulkTableID, "bulk", []storage.Column{
		{Name: "id", Type: storage.Int64},
		{Name: "val", Type: storage.Int64},
	}, []int{0})
}

// sut is the one composition every workload runs against: the primary
// (TPC-C procedures, WAL in a data directory, checkpoint runner) feeding
// an OLAP replica over the loopback transport, composed as
// cmd/batchdb-server's newServer and benchkit's distributed hybrid do.
type sut struct {
	p      int
	db     *tpcc.DB
	engine *oltp.Engine
	dur    *checkpoint.State
	reg    *obs.Registry
	rep    *olap.Replica
	sched  *olap.Scheduler[*exec.Query, exec.Result]
	conns  [2]*network.Conn
	dir    string
	tr     *tracer
	bulk   *storage.Schema
	nextID int64 // next free id in the scratch table

	bootstrap time.Duration
	closeOnce sync.Once
}

// newPrimary builds the store, engine and durable log in dir, up to but
// not including Start. seedData is false when a checkpoint in dir
// replaces the generated rows (the recovery probe).
func newPrimary(seed int64, p int, dir string, seedData bool, tr *tracer) (*tpcc.DB, *oltp.Engine, *checkpoint.State, checkpoint.BootInfo, error) {
	db := tpcc.NewDB(tpcc.BenchScale(warehouses))
	if seedData {
		if err := tpcc.Generate(db, seed); err != nil {
			return nil, nil, nil, checkpoint.BootInfo{}, err
		}
	}
	bs := bulkSchema()
	db.Store.CreateTable(bs, func(tup []byte) uint64 { return uint64(bs.GetInt64(tup, 0)) }, 4096)
	engine, err := oltp.New(db.Store, oltp.Config{
		Workers:       p,
		Replicated:    tpcc.ReplicatedTables(),
		FieldSpecific: true,
	})
	if err != nil {
		return nil, nil, nil, checkpoint.BootInfo{}, err
	}
	tpcc.RegisterProcs(engine, db, true)
	ingest.RegisterProc(engine)
	if tr != nil {
		for _, name := range tpccProcs {
			engine.Register(name, tr.wrapProc(spanProc, engine.Proc(name)))
		}
		engine.RegisterBulk(ingest.ProcName, tr.wrapProc(spanIngestProc, engine.Proc(ingest.ProcName)))
	}
	st, info, err := checkpoint.Boot(engine, checkpoint.BootConfig{Dir: dir})
	if err != nil {
		return nil, nil, nil, info, err
	}
	if tr != nil {
		engine.SetLog(&tracedLog{CommandLog: st.WAL(), t: tr})
	}
	return db, engine, st, info, nil
}

// newSUT builds and starts the system in a fresh data directory.
func newSUT(seed int64, p int, dir string, tr *tracer) (*sut, error) {
	db, engine, st, _, err := newPrimary(seed, p, dir, true, tr)
	if err != nil {
		return nil, err
	}
	s := &sut{p: p, db: db, engine: engine, dur: st, reg: obs.NewRegistry(), dir: dir, tr: tr, bulk: bulkSchema()}
	engine.RegisterMetrics(s.reg)
	obs.RegisterDurability(s.reg, st.Stats())

	// The replica sits behind the network transport on loopback.
	ln, err := network.Listen("127.0.0.1:0", nil)
	if err != nil {
		engine.Close()
		return nil, err
	}
	accepted := make(chan *network.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	cli, err := network.Dial(ln.Addr(), nil)
	srv := <-accepted
	ln.Close()
	if err != nil || srv == nil {
		engine.Close()
		return nil, fmt.Errorf("loopback transport: dial %v", err)
	}
	s.conns = [2]*network.Conn{srv, cli}
	srv.Stats().Register(s.reg, obs.L("side", "primary"))
	cli.Stats().Register(s.reg, obs.L("side", "replica"))

	rep := chbench.EmptyReplica(db, olapPartitions)
	rep.EnableZoneMaps(exec.DefaultMorselTuples)
	rep.EnableCompression()
	rep.SetApplyWorkers(p)
	pub := replica.NewPublisher(srv, engine)
	engine.SetSink(&tracedSink{UpdateSink: pub, t: tr})
	go pub.Serve()
	client := replica.NewClient(cli, rep)
	go client.Serve()
	t0 := time.Now()
	if _, err := replica.ShipSnapshot(srv, db.Store, chbench.Tables(), 4096); err != nil {
		s.close()
		return nil, fmt.Errorf("ship snapshot: %w", err)
	}
	if _, err := client.WaitBootstrap(); err != nil {
		s.close()
		return nil, err
	}
	s.bootstrap = time.Since(t0)

	ex := exec.NewEngine(rep, p)
	s.rep = rep
	s.sched = olap.NewScheduler[*exec.Query, exec.Result](rep, &tracedPrimary{Primary: client, t: tr}, tr.wrapRun(ex.RunBatch))
	ex.AttachStats(s.sched.Stats())
	s.sched.RegisterMetrics(s.reg)
	s.sched.Start()
	engine.Start()
	st.StartRunner(engine, checkpoint.Policy{EveryVIDs: checkpointVIDs})
	return s, nil
}

// close stops everything newSUT started, in dependency order, and waits
// for it; further calls do nothing. The data directory is left for the
// caller.
func (s *sut) close() {
	s.closeOnce.Do(func() {
		s.dur.StopRunner()
		if s.sched != nil {
			s.sched.Close()
		}
		s.engine.Close()
		for _, c := range s.conns {
			c.Close()
		}
	})
}

// quiesce waits until the replica has installed every committed update.
func (s *sut) quiesce() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		target := s.engine.SyncUpdates()
		if s.engine.LatestVID() == target && s.rep.AppliedVID() >= target {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica did not reach VID %d within 30s (applied %d)", target, s.rep.AppliedVID())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
