package benchkit

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"batchdb/internal/chbench"
	"batchdb/internal/mvcc"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/oltp"
	"batchdb/internal/tpcc"
)

// PruneOpts parameterizes the zone-map pruning benchmark: a CH-scale
// snapshot plus a stream of fresh orders applied through the update
// pipeline, then a selectivity sweep of `ol_o_id >= cutoff` scans with
// pruning on vs off, and a warm ApplyPending round timed with and
// without zone-map maintenance.
type PruneOpts struct {
	Scale      tpcc.Scale
	Partitions int
	// Workers is the engine worker count of the sweep scans.
	Workers int
	// Reps is the timed repetitions per cell (best-of).
	Reps int
	// MorselTuples sets both the morsel size and the zone-map block
	// size. Smaller than the engine default on purpose: the sweep wants
	// several blocks per partition even at laptop scale.
	MorselTuples int
	// AppendOrders is how many NewOrder transactions are pushed through
	// the OLTP engine and applied before the sweep (~10% of the initial
	// order-line count by default). Fresh lines carry o_ids above the
	// initial population's ceiling and land clustered in tail blocks.
	AppendOrders int
	OLTPWorkers  int
	Seed         int64
}

// PrunePoint is one selectivity cell of the sweep. Selectivity and skip
// rates are measured, not the nominal target.
type PrunePoint struct {
	// Target is the nominal selectivity label ("10%", "1%", ...).
	Target string `json:"target"`
	// Cutoff is the ol_o_id lower bound realizing the target.
	Cutoff int64 `json:"cutoff"`
	// Selectivity is matched rows / live rows, measured.
	Selectivity float64 `json:"selectivity"`
	Rows        int     `json:"rows"`
	// WallOnNS / WallOffNS are best-of-reps scan times with pruning
	// enabled / disabled (same replica, zone maps maintained in both).
	WallOnNS  int64   `json:"wall_on_ns"`
	WallOffNS int64   `json:"wall_off_ns"`
	Speedup   float64 `json:"speedup"`
	// BlocksScanned/BlocksSkipped/TuplesPruned are the pruning-on
	// dispatch counts of one scan.
	BlocksScanned int64   `json:"blocks_scanned"`
	BlocksSkipped int64   `json:"blocks_skipped"`
	TuplesPruned  int64   `json:"tuples_pruned"`
	SkipFrac      float64 `json:"skip_frac"`
}

// PruneQueryStats records the morsel skip rate of one CH-benCHmark
// query on the same snapshot (zero for queries with no pushed-down
// range, e.g. string predicates).
type PruneQueryStats struct {
	Name          string  `json:"name"`
	BlocksScanned int64   `json:"blocks_scanned"`
	BlocksSkipped int64   `json:"blocks_skipped"`
	SkipFrac      float64 `json:"skip_frac"`
}

// PruneSummary is the JSON record written to BENCH_PRUNE.json.
type PruneSummary struct {
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	Note         string `json:"note"`
	Warehouses   int    `json:"warehouses"`
	Partitions   int    `json:"partitions"`
	Workers      int    `json:"workers"`
	MorselTuples int    `json:"morsel_tuples"`
	// OrderLines is the live order-line count at sweep time;
	// AppendedLines of those arrived through the apply pipeline.
	OrderLines    int `json:"order_lines"`
	AppendedLines int `json:"appended_lines"`

	Sweep []PrunePoint      `json:"sweep"`
	CH    []PruneQueryStats `json:"ch_queries"`

	// ApplyWarmOnNSPerEntry / ApplyWarmOffNSPerEntry time the same warm
	// ApplyPending round (identical captured stream, equal workers) on a
	// replica with zone maps enabled vs one without (best over the
	// pairs); OverheadFrac is the median over pairs of the per-pair
	// on/off ratio minus one — the maintenance cost the ≤10% budget
	// bounds.
	ApplyWarmOnNSPerEntry  float64 `json:"apply_warm_on_ns_per_entry"`
	ApplyWarmOffNSPerEntry float64 `json:"apply_warm_off_ns_per_entry"`
	ApplyOverheadFrac      float64 `json:"apply_overhead_frac"`
}

// RunPrune measures zone-map morsel skipping over a CH-scale snapshot
// and the incremental-maintenance overhead of keeping the maps fresh.
func RunPrune(o PruneOpts) (*PruneSummary, error) {
	if o.Scale.Warehouses == 0 {
		o.Scale = tpcc.BenchScale(4)
	}
	if o.Partitions <= 0 {
		o.Partitions = 8
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Reps <= 0 {
		o.Reps = 5
	}
	if o.MorselTuples <= 0 {
		o.MorselTuples = 1024
	}
	if o.AppendOrders <= 0 {
		// ~10% of the initial order count: the "recent data" region the
		// low-selectivity cells land in.
		o.AppendOrders = o.Scale.Warehouses * o.Scale.DistrictsPerWarehouse *
			o.Scale.InitialOrdersPerDistrict / 10
	}
	if o.OLTPWorkers <= 0 {
		o.OLTPWorkers = 4
	}

	db := tpcc.NewDB(o.Scale)
	if err := tpcc.Generate(db, o.Seed); err != nil {
		return nil, err
	}
	// Every replica must bootstrap before the OLTP run (NewReplica
	// raises the VID floor to the primary's current snapshot). Several
	// zone-mapped / plain pairs let the warm-apply comparison take a
	// best-of instead of trusting one timing; repsOn[0] hosts the sweep.
	const applyPairs = 4
	var repsOn, repsOff []*olap.Replica
	for i := 0; i < applyPairs; i++ {
		rOn, err := chbench.NewReplica(db, o.Partitions)
		if err != nil {
			return nil, err
		}
		rOn.EnableZoneMaps(o.MorselTuples)
		rOff, err := chbench.NewReplica(db, o.Partitions)
		if err != nil {
			return nil, err
		}
		repsOn, repsOff = append(repsOn, rOn), append(repsOff, rOff)
	}
	repOn := repsOn[0]

	initialLines := repOn.Table(tpcc.TOrderLine).Live()

	// Push fresh orders through the OLTP engine in two batches so the
	// capture has a push boundary: the first half warms the apply
	// pipeline, the second half is the measured warm round.
	sink := &pushCapture{}
	e, err := oltp.New(db.Store, oltp.Config{
		Workers: o.OLTPWorkers, PushPeriod: time.Hour,
		Replicated: tpcc.ReplicatedTables(), FieldSpecific: true,
	})
	if err != nil {
		return nil, err
	}
	tpcc.RegisterProcs(e, db, false)
	e.SetSink(sink)
	e.Start()
	drv := tpcc.NewDriver(db.Scale, o.Seed+1)
	newOrders := func(n int) error {
		for i := 0; i < n; i++ {
			a := drv.NewOrder()
			for {
				r := e.Exec(tpcc.ProcNewOrder, a.Encode())
				if r.Err == nil || errors.Is(r.Err, tpcc.ErrRollback) {
					break
				}
				if !errors.Is(r.Err, mvcc.ErrConflict) {
					return r.Err
				}
			}
		}
		return nil
	}
	if err := newOrders(o.AppendOrders / 2); err != nil {
		e.Close()
		return nil, err
	}
	e.SyncUpdates()
	if err := newOrders(o.AppendOrders - o.AppendOrders/2); err != nil {
		e.Close()
		return nil, err
	}
	// Deliveries patch delivery dates onto the fresh orders, exercising
	// the zone-map widen/dirty path alongside pure inserts.
	for w := int64(1); w <= int64(o.Scale.Warehouses); w++ {
		for i := 0; i < 10; i++ {
			d := &tpcc.DeliveryArgs{WID: w, CarrierID: 1, Date: tpcc.LoadEpoch + int64(time.Hour)}
			r := e.Exec(tpcc.ProcDelivery, d.Encode())
			if r.Err != nil && !errors.Is(r.Err, mvcc.ErrConflict) {
				e.Close()
				return nil, r.Err
			}
		}
	}
	e.SyncUpdates()
	e.Close()
	if len(sink.pushes) < 2 {
		return nil, fmt.Errorf("benchkit: prune capture has %d pushes, need 2", len(sink.pushes))
	}

	sum := &PruneSummary{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note: "sweep cells scan order_line with ol_o_id >= cutoff; cells whose cutoff falls in " +
			"the initial population (o_ids restart per district, so every block spans the whole " +
			"domain) cannot prune and show speedup ~1; cells in the appended tail (monotone o_ids) " +
			"skip nearly everything — the interactive-application 'recent data' case. Synopses " +
			"activate lazily per queried column; the warm-apply timings run with the workload's " +
			"steady-state active set (ol_o_id, ol_delivery_d, ol_quantity, o_carrier_id)",
		Warehouses: o.Scale.Warehouses, Partitions: o.Partitions,
		Workers: o.Workers, MorselTuples: o.MorselTuples,
	}

	// Synopses activate lazily, per queried column. Give every
	// zone-mapped replica the workload's steady-state active set — the
	// sweep filters on ol_o_id, the CH mix on delivery dates, carrier
	// and quantity — before the timed applies, so the warm round pays
	// the real maintenance cost of the queried columns (including the
	// patch-heavy ones) rather than zero or all-columns.
	for _, rep := range repsOn {
		rep.Table(tpcc.TOrderLine).RequestSynopses([]olap.ColRange{
			{Col: tpcc.OLOID}, {Col: tpcc.OLDeliveryD}, {Col: tpcc.OLQuantity},
		})
		rep.Table(tpcc.TOrder).RequestSynopses([]olap.ColRange{{Col: tpcc.OCarrierID}})
		rep.ActivateSynopses()
	}

	// Apply the captured stream: first push cold (pipeline warmup),
	// second push timed warm. Each prefix must use the coverage VID of
	// its own last push. Interleaved on/off rounds, GC fenced, best-of
	// across the pairs — a single timing attributes GC debt and OS noise
	// to whichever mode runs first.
	warm := func(rep *olap.Replica) (float64, error) {
		a, aUpTo := sink.prefix(1)
		rep.SetApplyWorkers(o.Workers)
		rep.ApplyUpdates(a, aUpTo)
		if _, err := rep.ApplyPending(aUpTo); err != nil {
			return 0, err
		}
		rep.ApplyUpdates(sink.suffix(1), sink.upTo)
		runtime.GC()
		t0 := time.Now()
		st, err := rep.ApplyPending(sink.upTo)
		wall := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if st.Entries == 0 {
			return 0, fmt.Errorf("benchkit: warm apply round had no entries")
		}
		return float64(wall) / float64(st.Entries), nil
	}
	var ratios []float64
	for i := 0; i < applyPairs; i++ {
		// Alternate which mode runs first: the first timed apply after a
		// GC fence absorbs any leftover assist debt, and alternating
		// keeps that from charging one mode systematically.
		var on, off float64
		var err error
		if i%2 == 0 {
			on, err = warm(repsOn[i])
			if err == nil {
				off, err = warm(repsOff[i])
			}
		} else {
			off, err = warm(repsOff[i])
			if err == nil {
				on, err = warm(repsOn[i])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("benchkit: prune warm apply: %w", err)
		}
		ratios = append(ratios, on/off)
		if sum.ApplyWarmOnNSPerEntry == 0 || on < sum.ApplyWarmOnNSPerEntry {
			sum.ApplyWarmOnNSPerEntry = on
		}
		if sum.ApplyWarmOffNSPerEntry == 0 || off < sum.ApplyWarmOffNSPerEntry {
			sum.ApplyWarmOffNSPerEntry = off
		}
	}
	// The overhead is the median of the per-pair on/off ratios: a pair's
	// two timings share heap size and allocator state, so their ratio is
	// far more stable than a cross-pair best-of quotient on a loaded box.
	sort.Float64s(ratios)
	sum.ApplyOverheadFrac = ratios[len(ratios)/2] - 1
	if len(ratios)%2 == 0 {
		sum.ApplyOverheadFrac = (ratios[len(ratios)/2-1]+ratios[len(ratios)/2])/2 - 1
	}

	// Collect the live o_id distribution so cutoffs hit measured, not
	// nominal, selectivities.
	ols := db.Schemas.OrderLine
	var oids []int64
	for _, p := range repOn.Table(tpcc.TOrderLine).Partitions {
		p.Scan(func(_ uint64, tup []byte) bool {
			oids = append(oids, ols.GetInt64(tup, tpcc.OLOID))
			return true
		})
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	sum.OrderLines = len(oids)
	sum.AppendedLines = len(oids) - initialLines

	eng := exec.NewEngine(repOn, o.Workers)
	eng.MorselTuples = o.MorselTuples
	var stats olap.SchedulerStats
	eng.AttachStats(&stats)

	targets := []struct {
		label string
		sel   float64
	}{{"100%", 1}, {"10%", 0.1}, {"1%", 0.01}, {"0.1%", 0.001}}
	for _, tg := range targets {
		idx := int(float64(len(oids)) * (1 - tg.sel))
		if idx >= len(oids) {
			idx = len(oids) - 1
		}
		cutoff := oids[idx]
		matched := len(oids) - sort.Search(len(oids), func(i int) bool { return oids[i] >= cutoff })
		q := &exec.Query{
			Name:   "prune" + tg.label,
			Driver: tpcc.TOrderLine,
			Where:  []exec.Pred{exec.CmpInt(tpcc.OLOID, exec.GE, cutoff)},
			Aggs: []exec.AggSpec{
				{Kind: exec.Sum, Value: func(d []byte, _ [][]byte) float64 { return ols.GetFloat64(d, tpcc.OLAmount) }},
				{Kind: exec.Count},
			},
		}
		run := func(disable bool) (exec.Result, time.Duration, error) {
			eng.DisablePruning = disable
			res := eng.RunBatch([]*exec.Query{q}, 0) // warmup + result capture
			if res[0].Err != nil {
				return res[0], 0, res[0].Err
			}
			wall := bestOf(o.Reps, func() error {
				return eng.RunBatch([]*exec.Query{q}, 0)[0].Err
			})
			if wall < 0 {
				return res[0], 0, fmt.Errorf("benchkit: prune scan failed")
			}
			return res[0], wall, nil
		}
		// One counted run for the dispatch stats, outside the timing.
		s0, k0, t0 := stats.ExecBlocksScanned.Load(), stats.ExecBlocksSkipped.Load(), stats.ExecTuplesPruned.Load()
		eng.DisablePruning = false
		if r := eng.RunBatch([]*exec.Query{q}, 0); r[0].Err != nil {
			return nil, r[0].Err
		}
		scanned := int64(stats.ExecBlocksScanned.Load() - s0)
		skipped := int64(stats.ExecBlocksSkipped.Load() - k0)
		pruned := int64(stats.ExecTuplesPruned.Load() - t0)

		resOn, wallOn, err := run(false)
		if err != nil {
			return nil, err
		}
		resOff, wallOff, err := run(true)
		if err != nil {
			return nil, err
		}
		if resOn.Rows != resOff.Rows || !aggsClose(resOn.Values, resOff.Values) {
			return nil, fmt.Errorf("benchkit: pruning changed %s results: %d/%v vs %d/%v",
				q.Name, resOn.Rows, resOn.Values, resOff.Rows, resOff.Values)
		}
		pt := PrunePoint{
			Target: tg.label, Cutoff: cutoff, Rows: matched,
			Selectivity: float64(matched) / float64(len(oids)),
			WallOnNS:    int64(wallOn), WallOffNS: int64(wallOff),
			BlocksScanned: scanned, BlocksSkipped: skipped, TuplesPruned: pruned,
		}
		if wallOn > 0 {
			pt.Speedup = float64(wallOff) / float64(wallOn)
		}
		if scanned+skipped > 0 {
			pt.SkipFrac = float64(skipped) / float64(scanned+skipped)
		}
		sum.Sweep = append(sum.Sweep, pt)
	}

	// CH-benCHmark skip rates: what the declarative predicates of the
	// real query mix buy on this snapshot. A first pass registers each
	// query's pushed-down columns; activation then materializes their
	// bounds so the measured pass prunes — the scheduler gets the same
	// effect from the apply round between batches.
	g := chbench.NewGen(db.Schemas, o.Seed+2)
	eng.DisablePruning = false
	chQueries := make([]*exec.Query, len(chbench.QueryNames))
	for i, name := range chbench.QueryNames {
		chQueries[i] = g.ByName(name)
		if res := eng.RunBatch([]*exec.Query{chQueries[i]}, 0); res[0].Err != nil {
			return nil, fmt.Errorf("benchkit: prune CH %s: %w", name, res[0].Err)
		}
	}
	repOn.ActivateSynopses()
	for i, name := range chbench.QueryNames {
		s0, k0 := stats.ExecBlocksScanned.Load(), stats.ExecBlocksSkipped.Load()
		res := eng.RunBatch([]*exec.Query{chQueries[i]}, 0)
		if res[0].Err != nil {
			return nil, fmt.Errorf("benchkit: prune CH %s: %w", name, res[0].Err)
		}
		qs := PruneQueryStats{
			Name:          name,
			BlocksScanned: int64(stats.ExecBlocksScanned.Load() - s0),
			BlocksSkipped: int64(stats.ExecBlocksSkipped.Load() - k0),
		}
		if tot := qs.BlocksScanned + qs.BlocksSkipped; tot > 0 {
			qs.SkipFrac = float64(qs.BlocksSkipped) / float64(tot)
		}
		sum.CH = append(sum.CH, qs)
	}
	return sum, nil
}

// aggsClose compares two runs' aggregates up to the rounding a sum of
// floats picks up from the order its terms arrive in: which worker takes
// which morsel differs from run to run, and an absolute 1e-6 on sums near
// 3e8 (a dozen units in the last place) failed the smoke runs one time in
// three.
func aggsClose(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i]))) {
			return false
		}
	}
	return true
}
