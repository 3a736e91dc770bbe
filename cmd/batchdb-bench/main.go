// Command batchdb-bench regenerates every table and figure of the
// BatchDB paper's evaluation (§8) at laptop scale and prints the same
// rows/series the paper reports.
//
//	batchdb-bench -exp fig5a      # TPC-C throughput vs clients/warehouses
//	batchdb-bench -exp fig5b      # TPC-C latency percentiles
//	batchdb-bench -exp fig6       # update propagation power vs OLAP cores
//	batchdb-bench -exp table1     # CPU time per apply step and relation
//	batchdb-bench -exp fig7       # hybrid workload isolation (7a-7e)
//	batchdb-bench -exp fig8       # comparison vs shared-engine baselines
//	batchdb-bench -exp fig9       # implicit resource sharing
//	batchdb-bench -exp olapscale  # scan/build/apply scaling vs OLAP workers
//	batchdb-bench -exp freshness  # OLAP snapshot freshness lag vs batch size
//	batchdb-bench -exp chaos      # fleet router under kill/sever fault injection
//	batchdb-bench -exp ingest     # SLO-governed bulk ingest vs open throttle
//	batchdb-bench -exp all
//
// Numbers marked "projected" combine host measurements with the
// documented hardware model (internal/resmodel); everything else is
// measured on this machine. Shapes and ratios — not absolute values —
// are the reproduction target (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"batchdb/internal/baseline"
	"batchdb/internal/benchkit"
	"batchdb/internal/olap"
	"batchdb/internal/storage"
	"batchdb/internal/tpcc"
)

var (
	expFlag   = flag.String("exp", "all", "experiment: fig5a|fig5b|fig6|table1|fig7|fig8|fig9|olapscale|freshness|chaos|ingest|all")
	jsonFlag  = flag.String("json", "", "write the olapscale/chaos/ingest summary as JSON to this file (e.g. BENCH_OLAP.json)")
	durFlag   = flag.Duration("duration", 2*time.Second, "measurement window per cell")
	warmFlag  = flag.Duration("warmup", 500*time.Millisecond, "warmup per cell")
	quickFlag = flag.Bool("quick", false, "tiny cells for smoke runs")
	wFlag     = flag.Int("warehouses", 4, "warehouse count at bench scale (1 bench WH ~ 1/10 spec WH)")
	seedFlag  = flag.Int64("seed", 42, "workload seed")
)

func main() {
	flag.Parse()
	if *quickFlag {
		*durFlag = 300 * time.Millisecond
		*warmFlag = 100 * time.Millisecond
	}
	exps := map[string]func(){
		"fig5a":     fig5a,
		"fig5b":     fig5b,
		"fig6":      fig6,
		"table1":    table1,
		"fig7":      fig7,
		"fig8":      fig8,
		"fig9":      fig9,
		"olapscale": olapscale,
		"freshness": freshness,
		"chaos":     chaos,
		"ingest":    ingestExp,
	}
	if *expFlag == "all" {
		for _, name := range []string{"fig5a", "fig5b", "fig6", "table1", "fig7", "fig8", "fig9", "olapscale", "freshness", "chaos", "ingest"} {
			exps[name]()
		}
		return
	}
	fn, ok := exps[*expFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
	fn()
}

func scale(w int) tpcc.Scale { return tpcc.BenchScale(w) }

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// fig5a: TPC-C throughput vs #clients for several warehouse counts
// (paper Fig. 5a; paper range 5-200 warehouses / up to 2000 clients,
// here 1-8 bench warehouses / up to 32 clients).
func fig5a() {
	header("Figure 5a: TPC-C throughput vs clients (standalone OLTP, no replication)")
	warehouses := []int{1, 2, 4}
	clients := []int{1, 2, 4, 8, 16, 32}
	fmt.Printf("%-12s", "clients:")
	for _, c := range clients {
		fmt.Printf("%10d", c)
	}
	fmt.Println()
	for _, w := range warehouses {
		fmt.Printf("W=%-10d", w)
		for _, c := range clients {
			res, err := benchkit.RunOLTP(benchkit.OLTPOpts{
				Scale: scale(w), Workers: 4, Clients: c,
				Duration: *durFlag, Warmup: *warmFlag, Seed: *seedFlag,
			})
			if err != nil {
				fail(err)
			}
			fmt.Printf("%10.0f", res.Throughput)
		}
		fmt.Println()
	}
	fmt.Println("rows: txn/s; paper shape: saturates with clients; more warehouses -> higher peak (less contention)")
}

// fig5b: transaction latency percentiles vs clients at the largest
// warehouse count (paper Fig. 5b).
func fig5b() {
	header("Figure 5b: TPC-C transaction latency percentiles")
	w := *wFlag
	fmt.Printf("%-10s %12s %12s %12s\n", "clients", "p50(ms)", "p90(ms)", "p99(ms)")
	for _, c := range []int{2, 8, 32} {
		res, err := benchkit.RunOLTP(benchkit.OLTPOpts{
			Scale: scale(w), Workers: 4, Clients: c,
			Duration: *durFlag, Warmup: *warmFlag, Seed: *seedFlag,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-10d %12.2f %12.2f %12.2f\n", c,
			ms(res.P50), ms(res.P90), ms(res.P99))
	}
	fmt.Println("paper shape: p99 stays tens of ms at saturation (well under TPC-C's 5s bound)")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// fig6: update propagation power vs OLAP cores for row/column store and
// field-specific/whole-tuple updates (paper Fig. 6).
func fig6() {
	header("Figure 6: update propagation power at the OLAP replica")
	results, err := benchkit.RunPropagation(benchkit.PropagationOpts{
		Scale: scale(*wFlag), Workers: 4, Clients: 16,
		Duration: *durFlag, Seed: *seedFlag, Partitions: 8,
	})
	if err != nil {
		fail(err)
	}
	cores := []int{1, 2, 5, 10, 20, 30, 40}
	fmt.Println("Ptup (tuples/s, projected to k OLAP cores via Amdahl model; step1 serial, steps2-3 parallel):")
	fmt.Printf("%-24s", "variant \\ cores")
	for _, k := range cores {
		fmt.Printf("%12d", k)
	}
	fmt.Println()
	for _, r := range results {
		fmt.Printf("%-24s", r.Variant)
		for _, k := range cores {
			fmt.Printf("%12.0f", r.RateAtCores[k][0])
		}
		fmt.Println()
	}
	fmt.Println("\nPtxn (txns/s, projected):")
	fmt.Printf("%-24s", "variant \\ cores")
	for _, k := range cores {
		fmt.Printf("%12d", k)
	}
	fmt.Println()
	for _, r := range results {
		fmt.Printf("%-24s", r.Variant)
		for _, k := range cores {
			fmt.Printf("%12.0f", r.RateAtCores[k][1])
		}
		fmt.Println()
	}
	fmt.Println("\nmeasured on this host (no projection):")
	for _, r := range results {
		fmt.Printf("  %-24s Ptup=%10.0f/s  Ptxn=%10.0f/s  (entries=%d txns=%d  s1=%v s2=%v s3=%v)\n",
			r.Variant, r.MeasuredPtup, r.MeasuredPtxn, r.Entries, r.Txns, r.Step1, r.Step2, r.Step3)
	}
	fmt.Println("\nframe-encoding allocations per push (captured stream replayed through the publisher's wire format):")
	for _, r := range results {
		if r.Variant.ColumnStore {
			continue // same stream as the row variant of each granularity
		}
		fa := r.FrameAlloc
		fmt.Printf("  field-specific=%-5v pushes=%-4d unpooled: %8.0f B %6.1f allocs  pooled: %8.0f B %6.1f allocs\n",
			r.Variant.FieldSpecific, fa.Pushes,
			fa.UnpooledBytesPerPush, fa.UnpooledAllocsPerPush,
			fa.PooledBytesPerPush, fa.PooledAllocsPerPush)
	}
	fmt.Println("paper shape: scales with cores; column/whole-tuple is >2x slower than column/field-specific")
}

// table1: CPU time per apply step and relation (paper Table 1).
func table1() {
	header("Table 1: CPU time per step and relation for update propagation (row store)")
	results, err := benchkit.RunPropagation(benchkit.PropagationOpts{
		Scale: scale(*wFlag), Workers: 4, Clients: 16,
		Duration: *durFlag, Seed: *seedFlag, Partitions: 8,
	})
	if err != nil {
		fail(err)
	}
	names := map[storage.TableID]string{
		tpcc.TStock: "S", tpcc.TCustomer: "C", tpcc.TOrder: "O", tpcc.TOrderLine: "OL",
	}
	order := []storage.TableID{tpcc.TStock, tpcc.TCustomer, tpcc.TOrder, tpcc.TOrderLine}
	for _, r := range results {
		if r.Variant.ColumnStore || r.PerTable == nil {
			continue
		}
		mode := "field-specific"
		if !r.Variant.FieldSpecific {
			mode = "whole-record"
		}
		fmt.Printf("\n-- %s updates --\n", mode)
		// Tuple distribution.
		totUpd, totIns := 0, 0
		for _, id := range order {
			if ts := r.PerTable[id]; ts != nil {
				totUpd += ts.Updated
				totIns += ts.Inserted + ts.Deleted
			}
		}
		fmt.Printf("%-28s", "% of updated tuples")
		for _, id := range order {
			ts := r.PerTable[id]
			fmt.Printf("%8s=%3.0f", names[id], pct(tsUpdated(ts), totUpd+totIns))
		}
		fmt.Println()
		fmt.Printf("%-28s", "% of inserted tuples")
		for _, id := range order {
			ts := r.PerTable[id]
			fmt.Printf("%8s=%3.0f", names[id], pct(tsInserted(ts), totUpd+totIns))
		}
		fmt.Println()
		// CPU per step per relation.
		var total time.Duration
		for _, id := range order {
			if ts := r.PerTable[id]; ts != nil {
				total += ts.Step1 + ts.Step2 + ts.Step3
			}
		}
		for step := 1; step <= 3; step++ {
			fmt.Printf("%% CPU step S%-22d", step)
			for _, id := range order {
				ts := r.PerTable[id]
				var d time.Duration
				if ts != nil {
					switch step {
					case 1:
						d = ts.Step1
					case 2:
						d = ts.Step2
					default:
						d = ts.Step3
					}
				}
				fmt.Printf("%8s=%3.0f", names[id], 100*d.Seconds()/total.Seconds())
			}
			fmt.Println()
		}
	}
	fmt.Println("\npaper shape: step 3 dominates; whole-record spends most CPU on the wide Stock relation,")
	fmt.Println("field-specific shifts the cost to OrderLine (narrow patches on wide tuples become cheap)")
}

func tsUpdated(ts *tpccStats) int {
	if ts == nil {
		return 0
	}
	return ts.Updated
}

func tsInserted(ts *tpccStats) int {
	if ts == nil {
		return 0
	}
	return ts.Inserted + ts.Deleted
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// fig7: the hybrid CH-benCHmark experiment (paper Fig. 7a-7e).
func fig7() {
	header("Figure 7: hybrid CH-benCHmark (OLTP + OLAP) performance isolation")
	acs := []int{1, 4, 16}
	tcs := []int{0, 4, 16}
	type cfg struct {
		name         string
		distributed  bool
		constantSize bool
	}
	cfgs := []cfg{
		{"local (growing DB)", false, false},
		{"local (constant-size DB)", false, true},
		{"distributed (constant-size DB)", true, true},
	}

	// 7a + 7b: OLAP throughput and latency under OLTP load. Two series
	// per configuration: wall-clock on this host (OLTP and OLAP
	// time-share the CPU here) and the dedicated-resources projection
	// (queries per minute of CPU the OLAP component received — what the
	// paper's per-socket placement measures directly).
	for _, c := range cfgs {
		fmt.Printf("\n[7a/%s] OLAP throughput vs analytical clients\n", c.name)
		fmt.Printf("%-26s", "TC\\AC")
		for _, ac := range acs {
			fmt.Printf("%10d", ac)
		}
		fmt.Println()
		for _, tc := range tcs {
			wall := make([]float64, len(acs))
			proj := make([]float64, len(acs))
			for i, ac := range acs {
				r := runHybridCell(tc, ac, c.distributed, c.constantSize)
				wall[i], proj[i] = r.QueriesPerMin, r.QueriesPerBusyMin
			}
			fmt.Printf("TC=%-4d q/min (wall)     ", tc)
			for _, v := range wall {
				fmt.Printf("%10.0f", v)
			}
			fmt.Println()
			fmt.Printf("TC=%-4d q/min (projected)", tc)
			for _, v := range proj {
				fmt.Printf("%10.0f", v)
			}
			fmt.Println()
		}
	}
	fmt.Println("paper shape (projected series): constant-size rows nearly flat across TC (<=10-20% drop);")
	fmt.Println("growing DB halves throughput; wall series shows host CPU time-sharing on top")

	// 7b: latency percentiles at a busy AC point.
	fmt.Println("\n[7b] OLAP response-time percentiles (AC=8)")
	fmt.Printf("%-28s %10s %10s %10s\n", "config", "p50(ms)", "p90(ms)", "p99(ms)")
	for _, c := range cfgs[1:] {
		for _, tc := range []int{0, 16} {
			r := runHybridCell(tc, 8, c.distributed, c.constantSize)
			fmt.Printf("%-22s TC=%-3d %10.1f %10.1f %10.1f\n", c.name, tc,
				ms(r.QueryP50), ms(r.QueryP90), ms(r.QueryP99))
		}
	}
	fmt.Println("paper shape: batch scheduling smooths latencies (p50~p90~p99); OLTP load adds <=50% on p99")

	// 7c: CPU utilization split (measured busy fractions + modeled
	// socket assignment).
	fmt.Println("\n[7c] CPU busy fractions (host-measured; paper maps OLTP->1 socket, OLAP->3 sockets)")
	for _, tc := range tcs {
		r := runHybridCell(tc, 8, false, true)
		fmt.Printf("TC=%-4d AC=8: oltp busy=%.2f olap busy=%.2f\n", tc, r.OLTPBusyFrac, r.OLAPBusyFrac)
	}
	fmt.Println("paper shape: OLAP saturated already at 1 client, yet throughput grows with clients (shared scans)")

	// 7d + 7e: OLTP side under OLAP load, including NoRep.
	tcsSweep := []int{1, 4, 16}
	fmt.Println("\n[7d] OLTP throughput vs transactional clients (txn per second of OLTP CPU — dedicated-resources projection)")
	fmt.Printf("%-22s", "config\\TC")
	for _, tc := range tcsSweep {
		fmt.Printf("%10d", tc)
	}
	fmt.Println()
	fmt.Printf("%-22s", "NoRep")
	for _, tc := range tcsSweep {
		r, err := benchkit.RunHybrid(benchkit.HybridOpts{
			Scale: scale(*wFlag), OLTPWorkers: 4, TxnClients: tc,
			Duration: *durFlag, Warmup: *warmFlag, Seed: *seedFlag,
			NoRep: true, ConstantSize: true,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("%10.0f", r.TxnPerBusySec)
	}
	fmt.Println()
	for _, ac := range []int{0, 1, 8} {
		fmt.Printf("local AC=%-13d", ac)
		for _, tc := range tcsSweep {
			r := runHybridCell(tc, ac, false, true)
			fmt.Printf("%10.0f", r.TxnPerBusySec)
		}
		fmt.Println()
	}
	for _, ac := range []int{0, 8} {
		fmt.Printf("distributed AC=%-7d", ac)
		for _, tc := range tcsSweep {
			r := runHybridCell(tc, ac, true, true)
			fmt.Printf("%10.0f", r.TxnPerBusySec)
		}
		fmt.Println()
	}
	fmt.Println("paper shape: <=10% drop from propagation (NoRep vs AC=0); analytics adds <=7% more")

	fmt.Println("\n[7e] OLTP response-time percentiles (TC=8)")
	fmt.Printf("%-22s %10s %10s %10s\n", "config", "p50(ms)", "p90(ms)", "p99(ms)")
	for _, ac := range []int{0, 8} {
		r := runHybridCell(8, ac, false, true)
		fmt.Printf("local AC=%-12d %10.2f %10.2f %10.2f\n", ac, ms(r.TxnP50), ms(r.TxnP90), ms(r.TxnP99))
	}
	fmt.Println("paper shape: p99 bump from periodic update pushes, still tens of ms")
}

func runHybridCell(tc, ac int, distributed, constantSize bool) benchkit.HybridResult {
	r, err := benchkit.RunHybrid(benchkit.HybridOpts{
		Scale: scale(*wFlag), OLTPWorkers: 4, OLAPWorkers: 4, Partitions: 8,
		TxnClients: tc, AnalyticalClients: ac,
		Duration: *durFlag, Warmup: *warmFlag, Seed: *seedFlag,
		Distributed: distributed, ConstantSize: constantSize,
	})
	if err != nil {
		fail(err)
	}
	return r
}

// fig8: hybrid workload interaction for the shared-engine baselines and
// BatchDB, in relative units (paper Fig. 8).
func fig8() {
	header("Figure 8: hybrid interaction — HANA-like, MemSQL-like, BatchDB (relative units)")
	tcs := []int{0, 1, 4, 8}
	acs := []int{0, 1, 4, 8}

	type cell struct{ t, q, tp, qp float64 } // wall txn/s, wall q/min, projected
	type engine struct {
		name string
		run  func(tc, ac int) cell
	}
	baselineRun := func(policy baseline.Policy) func(tc, ac int) cell {
		return func(tc, ac int) cell {
			r, err := benchkit.RunBaseline(benchkit.BaselineOpts{
				Scale: scale(*wFlag), Policy: policy, Workers: 4,
				TxnClients: tc, AnalyticalClients: ac,
				Duration: *durFlag, Warmup: *warmFlag, Seed: *seedFlag,
			})
			if err != nil {
				fail(err)
			}
			return cell{t: r.TxnPerSec, q: r.QueriesPerMin}
		}
	}
	engines := []engine{
		{"fair-shared (HANA-like)", baselineRun(baseline.FairShared)},
		{"oltp-priority (MemSQL-like)", baselineRun(baseline.OLTPPriority)},
		{"BatchDB", func(tc, ac int) cell {
			r := runHybridCell(tc, ac, false, true)
			return cell{t: r.TxnPerSec, q: r.QueriesPerMin, tp: r.TxnPerBusySec, qp: r.QueriesPerBusyMin}
		}},
	}

	for _, e := range engines {
		// tau/alpha: max observed throughputs for normalization.
		var tau, alpha, tauP, alphaP float64
		grid := make(map[[2]int]cell)
		for _, tc := range tcs {
			for _, ac := range acs {
				if tc == 0 && ac == 0 {
					continue
				}
				c := e.run(tc, ac)
				grid[[2]int{tc, ac}] = c
				if c.t > tau {
					tau = c.t
				}
				if c.q > alpha {
					alpha = c.q
				}
				if c.tp > tauP {
					tauP = c.tp
				}
				if c.qp > alphaP {
					alphaP = c.qp
				}
			}
		}
		fmt.Printf("\n[%s] OLTP throughput (fraction of tau=%.0f txn/s) vs TC for varying AC\n", e.name, tau)
		fmt.Printf("%-8s", "AC\\TC")
		for _, tc := range tcs[1:] {
			fmt.Printf("%8d", tc)
		}
		fmt.Println()
		for _, ac := range acs {
			fmt.Printf("AC=%-5d", ac)
			for _, tc := range tcs[1:] {
				fmt.Printf("%8.2f", frac(grid[[2]int{tc, ac}].t, tau))
			}
			fmt.Println()
		}
		if tauP > 0 {
			fmt.Printf("[%s] same, dedicated-resources projection (fraction of tau=%.0f txn per OLTP-CPU-second)\n", e.name, tauP)
			for _, ac := range acs {
				fmt.Printf("AC=%-5d", ac)
				for _, tc := range tcs[1:] {
					fmt.Printf("%8.2f", frac(grid[[2]int{tc, ac}].tp, tauP))
				}
				fmt.Println()
			}
		}
		fmt.Printf("[%s] OLAP throughput (fraction of alpha=%.0f q/min) vs AC for varying TC\n", e.name, alpha)
		fmt.Printf("%-8s", "TC\\AC")
		for _, ac := range acs[1:] {
			fmt.Printf("%8d", ac)
		}
		fmt.Println()
		for _, tc := range tcs {
			fmt.Printf("TC=%-5d", tc)
			for _, ac := range acs[1:] {
				fmt.Printf("%8.2f", frac(grid[[2]int{tc, ac}].q, alpha))
			}
			fmt.Println()
		}
		if alphaP > 0 {
			fmt.Printf("[%s] same, dedicated-resources projection (fraction of alpha=%.0f q per OLAP-CPU-minute)\n", e.name, alphaP)
			for _, tc := range tcs {
				fmt.Printf("TC=%-5d", tc)
				for _, ac := range acs[1:] {
					fmt.Printf("%8.2f", frac(grid[[2]int{tc, ac}].qp, alphaP))
				}
				fmt.Println()
			}
		}
	}
	fmt.Println("\npaper shape: fair-shared collapses OLTP >5x under OLAP load; oltp-priority collapses OLAP")
	fmt.Println("under OLTP load; BatchDB keeps both near their maxima")
}

func frac(v, max float64) float64 {
	if max == 0 {
		return 0
	}
	return v / max
}

// fig9: implicit resource sharing (paper Fig. 9).
func fig9() {
	header("Figure 9: OLTP throughput when co-located with a bandwidth-intensive scan")
	res, err := benchkit.RunInterference(benchkit.InterferenceOpts{
		Scale: scale(*wFlag), Workers: 4, Clients: 8,
		Duration: *durFlag, Warmup: *warmFlag, Seed: *seedFlag,
		ScanThreads: 2, ScanBytes: 64 << 20,
	})
	if err != nil {
		fail(err)
	}
	rows := []struct {
		name string
		tps  float64
	}{
		{"No interference (measured)", res.BaselineTPS},
		{"Local-NUMA scan (measured, host time-sharing + cache pollution)", res.MeasuredColocated},
		{"Local-NUMA scan (projected: shared memory controller, model)", res.ProjectedColocated},
		{"Remote-NUMA scan (projected: isolated controller, model)", res.ProjectedRemote},
	}
	for _, r := range rows {
		fmt.Printf("%-66s %10.0f txn/s\n", r.name, r.tps)
	}
	fmt.Println("paper shape: co-located scan halves OLTP throughput; remote-NUMA scan has no effect")
}

// olapscale: scan/build/apply throughput vs OLAP worker count (morsel
// scheduling, sharded build construction, parallel apply pipeline).
// With -json the summary is also written to a file (BENCH_OLAP.json
// tracks the trajectory across PRs).
func olapscale() {
	header("OLAP scaling: scan / build / apply vs workers (skewed layout)")
	opts := benchkit.OLAPScaleOpts{
		ApplyScale:    scale(*wFlag),
		ApplyDuration: *durFlag,
		Seed:          *seedFlag,
	}
	if *quickFlag {
		opts.Tuples = 40_000
		opts.BuildRows = 20_000
		opts.Reps = 1
	}
	sum, err := benchkit.RunOLAPScale(opts)
	if err != nil {
		fail(err)
	}
	fmt.Printf("host: GOMAXPROCS=%d NumCPU=%d; skew=%.0f%% of %d tuples in one of %d partitions\n",
		sum.GOMAXPROCS, sum.NumCPU, 100*sum.SkewFrac, sum.Tuples, sum.Partitions)
	printScalePoints := func(name string, pts []benchkit.OLAPScalePoint) {
		fmt.Printf("\n%s:\n%-8s %12s %14s %10s %12s %12s\n", name,
			"workers", "wall(ms)", "items/s", "speedup", "projected", "old-bound")
		for _, p := range pts {
			fmt.Printf("%-8d %12.2f %14.0f %10.2f %12.2f %12.2f\n",
				p.Workers, float64(p.WallNS)/1e6, p.ItemsPerSec,
				p.MeasuredSpeedup, p.ProjectedSpeedup, p.PartitionDispatchBound)
		}
	}
	printScalePoints("shared scan (driver, skewed)", sum.Scan)
	printScalePoints("cold build construction (sharded)", sum.Build)
	fmt.Printf("\napply (identical TPC-C stream per cell):\n%-8s %12s %10s %14s %14s\n",
		"workers", "wall(ms)", "entries", "entries/s", "projected/s")
	for _, p := range sum.Apply {
		fmt.Printf("%-8d %12.2f %10d %14.0f %14.0f\n",
			p.Workers, float64(p.WallNS)/1e6, p.Entries, p.EntriesPerSec, p.ProjectedEntriesPerSec)
	}
	fmt.Printf("\napply buffer reuse: cold=%.0f ns/entry, warm=%.0f ns/entry\n",
		sum.ApplyColdNSPerEntry, sum.ApplyWarmNSPerEntry)
	fmt.Println("speedup columns: measured = this host's wall clock (capped by NumCPU);")
	fmt.Println("projected = resmodel Amdahl on the 1-worker measurement; old-bound = the")
	fmt.Println("partition-granular dispatch ceiling (largest partition) this PR removes")
	writeJSON(sum)
}

// freshness: how far the OLAP snapshot trails the OLTP watermark as the
// shared batches grow — more analytical clients mean bigger batches,
// longer windows between applies, and therefore older snapshots. The
// numbers come from the obs freshness tracker (the same instrument
// /metrics exports as batchdb_freshness_*).
func freshness() {
	header("Freshness: OLAP snapshot staleness vs shared-batch size (TC=8 OLTP clients)")
	fmt.Printf("%-6s %10s %10s %12s %14s %14s %12s\n",
		"AC", "batches", "avg batch", "q/min", "stale p50(ms)", "stale p99(ms)", "lag high")
	for _, ac := range []int{1, 2, 4, 8} {
		r := runHybridCell(8, ac, false, true)
		avgBatch := 0.0
		if r.Batches > 0 {
			avgBatch = float64(r.Queries) / float64(r.Batches)
		}
		fmt.Printf("%-6d %10d %10.1f %12.0f %14.2f %14.2f %12d\n",
			ac, r.Batches, avgBatch, r.QueriesPerMin,
			ms(r.FreshStaleP50), ms(r.FreshStaleP99), r.FreshLagHigh)
	}
	fmt.Println("stale pNN: wall-clock age of the installed snapshot, sampled at each batch install;")
	fmt.Println("lag high: peak (commit watermark - installed VID) in transactions since warmup.")
	fmt.Println("paper shape: staleness is bounded by one batch round (~query latency), not by TC;")
	fmt.Println("bigger shared batches trade bounded extra staleness for shared-scan throughput")
}

// chaos: the fleet router's robustness contract under repeated kill and
// sever injection — success rate within the deadline, zero unflagged
// staleness-bound violations, and the router's healthy-path overhead vs
// direct node dispatch (BENCH_CHAOS.json with -json).
func chaos() {
	header("Chaos: 3-replica fleet under kill/sever injection (deadline 2s, staleness bound 1s)")
	opts := benchkit.ChaosOpts{
		Scale: scale(*wFlag), OLTPWorkers: 4, OLAPWorkers: 4, Partitions: 8,
		Replicas: 3, TxnClients: 4, AnalyticalClients: 6,
		Duration: 4 * *durFlag, Warmup: *warmFlag, Seed: *seedFlag,
	}
	if *quickFlag {
		opts.Scale = scale(1)
		opts.Duration = 2 * time.Second
		opts.AnalyticalClients = 4
		opts.OverheadProbes = 20
	}
	res, err := benchkit.RunChaos(opts)
	if err != nil {
		fail(err)
	}
	fmt.Printf("faults injected:   %d kills, %d severs\n", res.Kills, res.Severs)
	fmt.Printf("queries:           %d routed, %d answered, %d rejected, %d shed\n",
		res.Queries, res.Answered, res.Rejected, res.Shed)
	fmt.Printf("success rate:      %.2f%%  (target >= 99%%)\n", 100*res.SuccessRate)
	fmt.Printf("staleness bound:   %d served stale-flagged, %d unflagged violations (target 0)\n",
		res.StaleServed, res.BoundViolations)
	fmt.Printf("recovery machine:  %d ejections, %d probes, %d readmits, %d retries, %d hedges (%d won)\n",
		res.Ejections, res.Probes, res.Readmits, res.Retries, res.Hedges, res.HedgeWins)
	fmt.Printf("routed latency:    p50=%.2fms p99=%.2fms under chaos\n", ms(res.QueryP50), ms(res.QueryP99))
	fmt.Printf("healthy overhead:  direct p50=%.2fms routed p50=%.2fms (%+.1f%%, target <= 5%%)\n",
		ms(res.DirectP50), ms(res.RoutedP50), 100*res.OverheadFrac)
	fmt.Printf("oltp under chaos:  %.0f txn/s\n", res.TxnPerSec)
	fmt.Println("contract: every query returns within its deadline; answers beyond the bound are")
	fmt.Println("flagged Stale or rejected typed, never silent; the breaker ejects dead members and")
	fmt.Println("probes them back in once they recover")
	writeJSON(res)
}

// ingestExp: the SLO-governed bulk-ingest experiment — interactive
// TPC-C clients measure an unloaded p99 baseline, then a governed load
// cell (paced to hold baseline x 1.5) and an open-throttle cell run
// back to back and report the interactive p99 each one imposed
// (BENCH_INGEST.json with -json).
func ingestExp() {
	header("Bulk ingest: SLO-governed admission vs open throttle (interactive p99 bound = 1.5x baseline)")
	opts := benchkit.IngestOpts{
		Scale: scale(*wFlag), OLTPWorkers: 4, TxnClients: 4,
		ChunkRows: 4096, SLOMultiplier: 1.5,
		Duration: 2 * *durFlag, Warmup: *warmFlag, Baseline: *durFlag,
		Seed: *seedFlag,
	}
	if *quickFlag {
		opts.Scale = scale(1)
		opts.TxnClients = 2
		opts.ChunkRows = 1024
	}
	sum, err := benchkit.RunIngest(opts)
	if err != nil {
		fail(err)
	}
	fmt.Printf("host: GOMAXPROCS=%d NumCPU=%d; TC=%d, chunk=%d rows, cell window %v\n",
		sum.GOMAXPROCS, sum.NumCPU, sum.TxnClients, sum.ChunkRows, opts.Duration)
	fmt.Printf("unloaded: %.0f txn/s, p99=%.2fms -> bound %.2fms (%.1fx)\n",
		sum.UnloadedTxnPerSec, float64(sum.BaselineP99NS)/1e6, float64(sum.BoundNS)/1e6, sum.SLOMultiplier)
	fmt.Printf("\n%-12s %12s %12s %10s %12s %12s %10s %10s\n",
		"cell", "rows/s", "chunks", "throttles", "txn/s", "txn p99", "vs bound", "final r")
	for _, c := range []benchkit.IngestCell{sum.Governed, sum.Ungoverned} {
		name := "governed"
		if !c.Governed {
			name = "open"
		}
		fmt.Printf("%-12s %12.0f %12d %10d %12.0f %10.2fms %9.2fx %10.1f\n",
			name, c.RowsPerSec, c.Chunks, c.Throttles, c.TxnPerSec,
			float64(c.TxnP99NS)/1e6, float64(c.TxnP99NS)/float64(sum.BoundNS), c.FinalRate)
	}
	fmt.Printf("\ngoverned holds SLO: %v; open throttle violates: %v\n",
		sum.GovernedHoldsSLO, sum.UngovernedViolates)
	fmt.Printf("OLAP batch after freshness barrier sees %d rows at snapshot vid=%d\n",
		sum.OLAPRows, sum.OLAPSnapVID)
	fmt.Println("both cells submit full chunks for the whole window; the governor's only lever is")
	fmt.Println("chunk admission rate, so the rows/s gap is the price of the latency bound")
	writeJSON(sum)
}

// writeJSON writes v as indented JSON to the -json file, if one is set.
func writeJSON(v any) {
	if *jsonFlag == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*jsonFlag, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", *jsonFlag)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

// tpccStats aliases the per-relation apply statistics type.
type tpccStats = olap.TableApplyStats
