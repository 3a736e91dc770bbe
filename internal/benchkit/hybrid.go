package benchkit

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"batchdb/internal/chbench"
	"batchdb/internal/metrics"
	"batchdb/internal/mvcc"
	"batchdb/internal/network"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/oltp"
	"batchdb/internal/replica"
	"batchdb/internal/tpcc"
)

// HybridOpts parameterizes the CH-benCHmark hybrid experiment
// (paper §8.4, Fig. 7).
type HybridOpts struct {
	Scale       tpcc.Scale
	OLTPWorkers int
	OLAPWorkers int
	Partitions  int
	// TxnClients (TC) and AnalyticalClients (AC) are the closed-loop
	// client counts of Fig. 7's axes.
	TxnClients        int
	AnalyticalClients int
	Duration          time.Duration
	Warmup            time.Duration
	Seed              int64
	// ConstantSize keeps the database size constant (Fig. 7a right).
	ConstantSize bool
	// Distributed places the OLAP replica behind the TCP (RDMA-model)
	// transport instead of in-process ("Distributed (RDMA) Replicas").
	Distributed bool
	// NoRep disables replication entirely (Fig. 7d reference line);
	// analytical clients must be 0.
	NoRep bool
	// QueryAtATime disables shared execution (ablation).
	QueryAtATime bool
}

// HybridResult reports one (TC, AC) cell of Fig. 7.
type HybridResult struct {
	// OLTP side.
	TxnPerSec              float64
	TxnP50, TxnP90, TxnP99 time.Duration
	Conflicts              uint64
	// OLAP side.
	QueriesPerMin                float64
	QueryP50, QueryP90, QueryP99 time.Duration
	Batches                      uint64
	AppliedEntries               uint64
	// Busy fractions of measured wall time (single host; Fig. 7c maps
	// them onto the modeled sockets via resmodel).
	OLTPBusyFrac, OLAPBusyFrac float64
	// Freshness of the installed OLAP snapshot over the whole run:
	// staleness percentiles sampled at each batch install and the
	// highest watermark-minus-installed VID lag seen after warmup.
	Queries       uint64
	FreshStaleP50 time.Duration
	FreshStaleP99 time.Duration
	FreshLagHigh  int64
	// TxnPerBusySec and QueriesPerBusyMin normalize throughput by the
	// CPU time each component actually received — the dedicated-
	// resources projection. On the paper's machine each replica owns
	// its sockets, so wall time and busy time coincide; on a shared
	// host, wall-clock throughput conflates time-sharing with the
	// logical interference the paper isolates. The normalized series is
	// the paper-comparable one; both are reported.
	TxnPerBusySec     float64
	QueriesPerBusyMin float64
	// Transport statistics for the distributed configuration.
	Transport *network.Stats
}

// RunHybrid executes one cell of the hybrid experiment.
func RunHybrid(o HybridOpts) (HybridResult, error) {
	if o.NoRep && o.AnalyticalClients > 0 {
		return HybridResult{}, errors.New("benchkit: NoRep run cannot have analytical clients")
	}
	db := tpcc.NewDB(o.Scale)
	if err := tpcc.Generate(db, o.Seed); err != nil {
		return HybridResult{}, err
	}
	engine, err := oltp.New(db.Store, oltp.Config{
		Workers:       o.OLTPWorkers,
		Replicated:    tpcc.ReplicatedTables(),
		FieldSpecific: true,
		PushPeriod:    200 * time.Millisecond,
	})
	if err != nil {
		return HybridResult{}, err
	}
	tpcc.RegisterProcs(engine, db, o.ConstantSize)

	var sched *olap.Scheduler[*exec.Query, exec.Result]
	var schedStats *olap.SchedulerStats
	var transport *network.Stats
	cleanup := func() {}

	if !o.NoRep {
		if o.Distributed {
			rep := chbench.EmptyReplica(db, o.Partitions)
			ln, err := network.Listen("127.0.0.1:0", nil)
			if err != nil {
				return HybridResult{}, err
			}
			connCh := make(chan *network.Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err == nil {
					connCh <- c
				}
			}()
			cliConn, err := network.Dial(ln.Addr(), nil)
			if err != nil {
				return HybridResult{}, err
			}
			srvConn := <-connCh
			ln.Close()
			transport = srvConn.Stats()

			pub := replica.NewPublisher(srvConn, engine)
			engine.SetSink(pub)
			go pub.Serve()
			client := replica.NewClient(cliConn, rep)
			go client.Serve()
			if _, err := replica.ShipSnapshot(srvConn, db.Store, chbench.Tables(), 4096); err != nil {
				return HybridResult{}, fmt.Errorf("snapshot: %w", err)
			}
			if _, err := client.WaitBootstrap(); err != nil {
				return HybridResult{}, err
			}
			rep.SetApplyWorkers(o.OLAPWorkers)
			ex := exec.NewEngine(rep, o.OLAPWorkers)
			ex.QueryAtATime = o.QueryAtATime
			sched = olap.NewScheduler[*exec.Query, exec.Result](rep, client, ex.RunBatch)
			ex.AttachStats(sched.Stats())
			cleanup = func() { cliConn.Close(); srvConn.Close() }
		} else {
			rep, err := chbench.NewReplica(db, o.Partitions)
			if err != nil {
				return HybridResult{}, err
			}
			engine.SetSink(rep)
			rep.SetApplyWorkers(o.OLAPWorkers)
			ex := exec.NewEngine(rep, o.OLAPWorkers)
			ex.QueryAtATime = o.QueryAtATime
			sched = olap.NewScheduler[*exec.Query, exec.Result](rep, engine, ex.RunBatch)
			ex.AttachStats(sched.Stats())
		}
		sched.Start()
		schedStats = sched.Stats()
	}
	engine.Start()
	defer func() {
		if sched != nil {
			sched.Close()
		}
		engine.Close()
		cleanup()
	}()

	var (
		txnHist, qryHist   metrics.Histogram
		txnCount, qryCount metrics.Counter
		conflicts          metrics.Counter
		failure            error
		failOnce           sync.Once
	)
	stop := make(chan struct{})
	measuring := make(chan struct{})
	var wg sync.WaitGroup

	for c := 0; c < o.TxnClients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			drv := tpcc.NewDriver(db.Scale, seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				proc, args := drv.Next()
				start := time.Now()
				r := engine.Exec(proc, args)
				switch {
				case r.Err == nil, errors.Is(r.Err, tpcc.ErrRollback):
					select {
					case <-measuring:
						txnHist.RecordSince(start)
						txnCount.Inc()
					default:
					}
				case errors.Is(r.Err, mvcc.ErrConflict):
					select {
					case <-measuring:
						conflicts.Inc()
					default:
					}
				case errors.Is(r.Err, oltp.ErrClosed):
					return
				default:
					failOnce.Do(func() { failure = r.Err })
					return
				}
			}
		}(o.Seed + int64(c) + 1)
	}
	for c := 0; c < o.AnalyticalClients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			gen := chbench.NewGen(db.Schemas, seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := gen.Next()
				start := time.Now()
				res, err := sched.Query(q)
				if err != nil {
					return // scheduler closed
				}
				if res.Err != nil {
					failOnce.Do(func() { failure = res.Err })
					return
				}
				select {
				case <-measuring:
					qryHist.RecordSince(start)
					qryCount.Inc()
				default:
				}
			}
		}(o.Seed + 10000 + int64(c))
	}

	time.Sleep(o.Warmup)
	oltpBusy0 := engine.Stats().Busy.Busy()
	var olapBusy0 time.Duration
	var applied0 uint64
	if schedStats != nil {
		olapBusy0 = schedStats.Busy.Busy()
		applied0 = schedStats.AppliedEntries.Load()
	}
	if sched != nil {
		sched.Freshness().ResetLagHigh() // measure the post-warmup peak only
	}
	close(measuring)
	t0 := time.Now()
	time.Sleep(o.Duration)
	elapsed := time.Since(t0)
	close(stop)
	wg.Wait()
	if failure != nil {
		return HybridResult{}, failure
	}

	oltpBusy := (engine.Stats().Busy.Busy() - oltpBusy0).Seconds()
	r := HybridResult{
		TxnPerSec:     float64(txnCount.Load()) / elapsed.Seconds(),
		TxnP50:        time.Duration(txnHist.Percentile(50)),
		TxnP90:        time.Duration(txnHist.Percentile(90)),
		TxnP99:        time.Duration(txnHist.Percentile(99)),
		Conflicts:     conflicts.Load(),
		QueriesPerMin: float64(qryCount.Load()) / elapsed.Minutes(),
		QueryP50:      time.Duration(qryHist.Percentile(50)),
		QueryP90:      time.Duration(qryHist.Percentile(90)),
		QueryP99:      time.Duration(qryHist.Percentile(99)),
		OLTPBusyFrac:  oltpBusy / elapsed.Seconds(),
		Transport:     transport,
	}
	if oltpBusy > 0 {
		r.TxnPerBusySec = float64(txnCount.Load()) / oltpBusy
	}
	if schedStats != nil {
		r.Batches = schedStats.Batches.Load()
		r.Queries = schedStats.Queries.Load()
		r.AppliedEntries = schedStats.AppliedEntries.Load() - applied0
		olapBusy := (schedStats.Busy.Busy() - olapBusy0).Seconds()
		r.OLAPBusyFrac = olapBusy / elapsed.Seconds()
		if olapBusy > 0 {
			r.QueriesPerBusyMin = float64(qryCount.Load()) / (olapBusy / 60)
		}
		fresh := sched.Freshness()
		hist := fresh.StalenessHistogram()
		r.FreshStaleP50 = time.Duration(hist.Percentile(50))
		r.FreshStaleP99 = time.Duration(hist.Percentile(99))
		r.FreshLagHigh = fresh.LagHigh()
	}
	return r, nil
}
