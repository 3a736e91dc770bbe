// Command benchmark is the repository's HTAP benchmark: four closed-loop
// workloads (oltp, olap, hybrid, ingest) against one in-process
// composition of the real engine, reporting end-to-end numbers with
// tracing off and a per-layer budget with tracing on. See README.md.
//
//	bash benchmark/run.sh --workload hybrid --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --compare a1.json a2.json -- b1.json b2.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"batchdb/internal/baseline"
	"batchdb/internal/chbench"
	"batchdb/internal/checkpoint"
)

// workloads differ only in which sessions their measured window runs.
var workloads = map[string]sessions{
	"oltp":   {txn: true},
	"olap":   {query: true},
	"hybrid": {txn: true, query: true},
	"ingest": {txn: true, load: true},
}

var workloadOrder = []string{"oltp", "olap", "hybrid", "ingest"}

// spec is BENCHMARK.json: the one place metric names, units, directions
// and bounds are declared. The program computes values; the spec says
// which of them a run prints.
type spec struct {
	Workloads  []struct{ Name string } `json:"workloads"`
	RunSeconds int                     `json:"run_seconds"`
	EndToEnd   []metricSpec            `json:"end_to_end"`
	PerLayer   []metricSpec            `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (go test runs in the package directory).
func loadSpec() (*spec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		if b, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err != nil {
			return nil, err
		}
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	traceOut string
	quick    bool
	base     string // where the run's scratch directory is made
}

// result is the last line a run prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envelope says where and how the numbers were taken.
type envelope struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	WindowS    float64        `json:"window_s"`
	Trace      bool           `json:"trace"`
	Quick      bool           `json:"quick"`
	Host       string         `json:"host"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Revision   string         `json:"vcs_revision"`
	SUT        string         `json:"sut"`
	Flush      string         `json:"flush_policy"`
	Stages     []string       `json:"stages_done_at"`
	Samples    map[string]int `json:"samples"`
	Absent     []string       `json:"absent_series,omitempty"`
	// Underpowered lists per-layer percentiles with fewer than ten
	// samples beyond them on this workload.
	Underpowered []string `json:"underpowered,omitempty"`
	Failures     []string `json:"failures,omitempty"`
}

func main() {
	var cfg config
	var workload, compare string
	var seconds, trace int
	flag.StringVar(&workload, "workload", "all", "oltp, olap, hybrid, ingest or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the spans to this file")
	flag.BoolVar(&cfg.quick, "quick", false, "1 s windows: a smoke run whose numbers compare with nothing")
	flag.StringVar(&compare, "compare", "", "compare saved outputs: -compare a.json... -- b.json...")
	flag.Parse()

	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if compare != "" {
		// The flag package swallows a "--" that follows the flag's value,
		// so the two sides are read from the raw arguments.
		i := 1
		for !strings.HasSuffix(os.Args[i], "-compare") {
			i++
		}
		if err := compareRuns(sp, os.Args[i+1:], os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if seconds <= 0 {
		seconds = sp.RunSeconds
	}
	cfg.window, cfg.trace, cfg.base = time.Duration(seconds)*time.Second, trace == 1, ".bench_build"

	if workload == "all" {
		// One process per workload, so that each reports its own peak memory.
		self, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		for _, name := range workloadOrder {
			args := append(append([]string(nil), os.Args[1:]...), "-workload", name) // the last -workload wins
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fatal(fmt.Errorf("workload %s: %w", name, err))
			}
		}
		return
	}
	cfg.workload = workload
	env, res, err := run(cfg, sp)
	if err != nil {
		fatal(err)
	}
	printTable(os.Stderr, env, res, sp)
	out := json.NewEncoder(os.Stdout)
	if err := errors.Join(out.Encode(map[string]*envelope{"envelope": env}), out.Encode(res)); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// run executes one workload once and returns what it measured.
func run(cfg config, sp *spec) (*envelope, *result, error) {
	who, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	p := min(runtime.NumCPU(), 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))

	// Before its window every workload runs the same two warm-up
	// segments: both classes together, then queries alone. They warm both
	// replicas the same way on every workload, and they are where a class
	// the workload's own window leaves out gets its end-to-end numbers:
	// transactions from the first segment, queries from the second, each
	// where its numbers were steadier (see README). Each lasts two fifths
	// of the window, so that a number read from a segment has samples of
	// the same order as one read from the window.
	setups, lead := 3, 500*time.Millisecond
	if cfg.quick {
		cfg.window = time.Second
		setups, lead = 1, 100*time.Millisecond
	}
	warmFor := cfg.window * 2 / 5

	env := &envelope{
		Workload: cfg.workload, Seed: cfg.seed, WindowS: cfg.window.Seconds(), Trace: cfg.trace, Quick: cfg.quick,
		NProc: runtime.NumCPU(), GOMAXPROCS: p, GoVersion: runtime.Version(), Revision: revision(),
		SUT: fmt.Sprintf("tpcc BenchScale(%d) constant-size, %d OLTP workers, %d OLAP workers, %d partitions, zone maps + compression, replica over loopback network, checkpoint every %d VIDs",
			warehouses, p, p, olapPartitions, checkpointVIDs),
		Flush:   flushPolicy,
		Samples: map[string]int{},
	}
	env.Host, _ = os.Hostname()
	res := &result{Metrics: map[string]metricOut{}}
	check := func(ok bool, format string, a ...any) {
		res.Attempted++
		if !ok {
			res.Failed++
			if len(env.Failures) < 20 {
				env.Failures = append(env.Failures, fmt.Sprintf(format, a...))
			}
		}
	}
	absorb := func(ph *phase) {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		env.Failures = append(env.Failures, ph.failures...)
	}
	began := time.Now()
	stage := func(name string) {
		env.Stages = append(env.Stages, fmt.Sprintf("%s %.1fs", name, time.Since(began).Seconds()))
	}

	if err := os.MkdirAll(cfg.base, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.base, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	spanCap := 0
	if cfg.trace {
		spanCap = int(cfg.window.Seconds()+1) * 150000
	}
	tr := newTracer(spanCap)

	// Set-up is load + boot + replica bootstrap, done several times so
	// that the reported time is a median; the last system is the one used.
	var s *sut
	var setupS []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
			os.RemoveAll(s.dir)
			s = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if s, err = newSUT(cfg.seed, p, filepath.Join(dir, fmt.Sprint("data", i)), tr); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.close()
	sort.Float64s(setupS)
	stage("setup")

	warm := [2]*phase{
		s.runPhase("warm-both", sessions{txn: true, query: true}, cfg.seed+1000, lead, warmFor, nil, nil),
		s.runPhase("warm-query", sessions{query: true}, cfg.seed+3000, lead, warmFor, nil, nil),
	}
	absorb(warm[0])
	absorb(warm[1])
	if err := s.quiesce(); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	stage("warm-up")

	var win *phase
	var td *traced
	if cfg.trace {
		if td, err = tracedWindow(s, who, cfg.seed, lead, cfg.window, dir); err != nil {
			return nil, nil, err
		}
		win = td.win
		check(td.dropped == 0, "span buffer overflowed: %d spans dropped", td.dropped)
	} else {
		win = s.runPhase("window", who, cfg.seed, lead, cfg.window, nil, nil)
	}
	absorb(win)
	if err := s.quiesce(); err != nil {
		return nil, nil, err
	}
	stage("window")

	// At quiesce every CH template must get the same answer from the
	// replica as from a direct evaluation over the primary's store.
	base := baseline.New(s.db, 1, baseline.FairShared)
	gen := chbench.NewGen(s.db.Schemas, cfg.seed+20000)
	for _, name := range chbench.QueryNames {
		q := gen.ByName(name)
		got, err := s.sched.Query(q)
		want := base.Query(q)
		ok := err == nil && got.Err == nil && want.Err == nil && got.Rows == want.Rows
		for i := range want.Values {
			ok = ok && i < len(got.Values) && parityClose(got.Values[i], want.Values[i])
		}
		check(ok, "%s: replica answered rows=%d %v (err %v %v), primary rows=%d %v (err %v)",
			name, got.Rows, got.Values, err, got.Err, want.Rows, want.Values, want.Err)
	}
	base.Close()

	if cfg.workload == "oltp" {
		// Drop the engine and boot the data directory into a fresh store:
		// every acknowledged commit must be there.
		var highest uint64
		for _, ph := range []*phase{warm[0], win} {
			for _, a := range ph.acks {
				highest = max(highest, a.vid)
			}
		}
		s.close()
		has, err := checkpoint.DirHasCheckpoint(s.dir)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		_, engine, _, info, err := newPrimary(cfg.seed, p, s.dir, !has, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("recovery: %w", err)
		}
		recovered := time.Since(t0)
		engine.Close()
		check(info.WatermarkVID >= highest, "recovered watermark %d is below acknowledged commit VID %d", info.WatermarkVID, highest)
		if td != nil {
			td.recover, td.replayed, td.replay = recovered, info.Replayed, info.ReplayTime
		}
	}
	stage("checks")

	vs, declared := values{}, sp.EndToEnd
	if cfg.trace {
		declared = sp.PerLayer
		perLayer(vs, s, who, td)
		for k := range td.w.absent {
			env.Absent = append(env.Absent, k)
		}
		sort.Strings(env.Absent)
		if cfg.traceOut != "" {
			ops := map[string][]op{"oltp.exec": win.txns, "olap.query": win.queries, "ingest.load": win.loads}
			if err := writeTrace(cfg.traceOut, td.spans, ops); err != nil {
				return nil, nil, err
			}
		}
	} else {
		endToEnd(vs, who, win, warm)
		vs.set("setup_s", setupS[len(setupS)/2])
	}
	for _, m := range declared {
		v, ok := vs[m.Name]
		check(ok, "metric %s is declared in BENCHMARK.json but was not computed", m.Name)
		if v.n > 0 || v.need > 0 {
			env.Samples[m.Name] = v.n
		}
		if v.n < v.need && !cfg.quick {
			// An end-to-end percentile without the samples to support it is
			// a failed run. A layer's is only marked: a layer that ran little
			// or not at all on this workload is a finding, not a fault.
			if cfg.trace {
				env.Underpowered = append(env.Underpowered, m.Name)
			} else {
				check(false, "metric %s has %d samples, needs %d", m.Name, v.n, v.need)
			}
		}
		res.Metrics[m.Name] = metricOut{Value: v.v, Unit: m.Unit}
	}
	for name := range vs {
		if _, ok := res.Metrics[name]; !ok {
			check(false, "metric %s was computed but is not declared in BENCHMARK.json", name)
		}
	}
	res.Correct = res.Failed == 0
	return env, res, nil
}
