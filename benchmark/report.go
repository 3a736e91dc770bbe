package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
)

// parityClose is the tolerance internal/chbench's parity tests use:
// float aggregates may differ by accumulation order only.
func parityClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

// revision is the VCS revision the binary was built from, if stamped.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printTable writes the human-readable report.
func printTable(w io.Writer, env *envelope, res *result, sp *spec) {
	fmt.Fprintf(w, "workload %s  seed %d  window %gs  trace %v  P=%d of %d cpus  %s  rev %s\n",
		env.Workload, env.Seed, env.WindowS, env.Trace, env.GOMAXPROCS, env.NProc, env.GoVersion, env.Revision)
	fmt.Fprintf(w, "sut: %s\nflush policy: %s\nstages done at: %s\n", env.SUT, env.Flush, strings.Join(env.Stages, ", "))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	declared := sp.EndToEnd
	if env.Trace {
		declared = sp.PerLayer
	}
	for _, m := range declared {
		n := ""
		if c, ok := env.Samples[m.Name]; ok {
			n = fmt.Sprintf("n=%d", c)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", m.Name, res.Metrics[m.Name].Value, m.Unit, n)
	}
	tw.Flush()
	for _, k := range env.Absent {
		fmt.Fprintf(w, "absent series: %s\n", k)
	}
	if len(env.Underpowered) > 0 {
		fmt.Fprintf(w, "percentiles with fewer than ten samples beyond them: %v\n", env.Underpowered)
	}
	for _, f := range env.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// readRuns collects, per workload, each end-to-end metric's values from
// saved outputs (every run is an envelope line then a result line).
func readRuns(paths []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		var env *envelope
		for sc.Scan() {
			var line struct {
				Envelope *envelope            `json:"envelope"`
				Metrics  map[string]metricOut `json:"metrics"`
			}
			if json.Unmarshal(sc.Bytes(), &line) != nil {
				continue
			}
			if line.Envelope != nil {
				env = line.Envelope
			}
			if line.Metrics == nil || env == nil || env.Trace {
				continue
			}
			if out[env.Workload] == nil {
				out[env.Workload] = map[string][]float64{}
			}
			for name, m := range line.Metrics {
				out[env.Workload][name] = append(out[env.Workload][name], m.Value)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return out, nil
}

// quartiles are Python's statistics.quantiles(values, n=4).
func quartiles(vals []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// compareRuns prints, per workload and end-to-end metric, each side's
// median and quartiles, how much worse side B is than side A, the
// bound, and a verdict: unresolved when either side's own spread
// (quartile distance over median) is wider than the bound.
func compareRuns(sp *spec, args []string, w io.Writer) error {
	var a, b []string
	side := &a
	for _, arg := range args {
		if arg == "--" {
			side = &b
			continue
		}
		*side = append(*side, arg)
	}
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("usage: -compare a.json... -- b.json...")
	}
	runsA, err := readRuns(a)
	if err != nil {
		return err
	}
	runsB, err := readRuns(b)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tspread\tB median [q1, q3]\tspread\tB worse by\tbound\tverdict")
	for _, wl := range workloadOrder {
		for _, m := range sp.EndToEnd {
			va, vb := runsA[wl][m.Name], runsB[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case math.Max(spreadA, spreadB) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g, %.5g]\t%.3f\t%.5g [%.5g, %.5g]\t%.3f\t%+.3f\t%.2f\t%s\n",
				wl, m.Name, a2, a1, a3, spreadA, b2, b1, b3, spreadB, worse, m.Bound, verdict)
		}
	}
	return tw.Flush()
}
