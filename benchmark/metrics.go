package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"batchdb/internal/obs"
)

// values collects computed metrics by name. n is the number of samples
// behind the value and need the fewest that make it reportable (0 when
// the value is a plain count or ratio).
type values map[string]measured

type measured struct {
	v       float64
	n, need int
}

func (vs values) set(name string, v float64) { vs[name] = measured{v: v} }

// dist reports the p-th percentile of a sample, which stands only when
// at least ten samples lie beyond it.
func (vs values) dist(name string, sorted []float64, p float64) {
	need := int(math.Ceil(10 / (1 - p/100)))
	vs[name] = measured{v: percentile(sorted, p), n: len(sorted), need: need}
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durations returns the ops' latencies in the given unit (ns per unit), sorted.
func durations(ops []op, unit float64) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = float64(o.end-o.start) / unit
	}
	sort.Float64s(out)
	return out
}

// staleness measures, from outside the program, how old each answer
// was: the time from the earliest acknowledgement of a commit the
// answer's snapshot does not contain to the answer itself (0 if the
// snapshot contains every commit acknowledged by then). Result in ms, sorted.
func staleness(queries, acks []op) []float64 {
	sort.Slice(acks, func(i, j int) bool { return acks[i].vid < acks[j].vid })
	// earliest[i] = earliest ack time among acks[i:].
	earliest := make([]int64, len(acks)+1)
	earliest[len(acks)] = math.MaxInt64
	for i := len(acks) - 1; i >= 0; i-- {
		earliest[i] = min(acks[i].end, earliest[i+1])
	}
	out := make([]float64, len(queries))
	for i, q := range queries {
		first := sort.Search(len(acks), func(j int) bool { return acks[j].vid > q.vid })
		if t := earliest[first]; t < q.end {
			out[i] = float64(q.end-t) / 1e6
		}
	}
	sort.Float64s(out)
	return out
}

// endToEnd computes the user-visible metrics. A class of sessions the
// workload's window does not run is read from a warm-up segment
// instead: transactions from the first, queries from the second (see
// README: every metric is reported on every workload).
func endToEnd(vs values, who sessions, win *phase, warm [2]*phase) {
	t, q := warm[0], warm[1]
	if who.txn {
		t = win
	}
	if who.query {
		q = win
	}
	lat := durations(t.txns, 1e6)
	vs["txn_per_s"] = measured{v: float64(len(t.txns)) / t.seconds(), n: len(t.txns)}
	vs.dist("txn_p50_ms", lat, 50)

	lat = durations(q.queries, 1e6)
	vs["query_per_min"] = measured{v: float64(len(q.queries)) / q.seconds() * 60, n: len(q.queries)}
	vs.dist("query_p90_ms", lat, 90)

	vs.set("rss_peak_mb", rssPeakMB())
}

// rssPeakMB reads the process's resident-set high-water mark.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// series is one reading of the registry, keyed by name{k=v,...}.
type series map[string]float64

func readRegistry(reg *obs.Registry) series {
	out := series{}
	for _, s := range reg.Samples() {
		var b strings.Builder
		b.WriteString(s.Name)
		for _, l := range s.Labels {
			b.WriteString("," + l.Key + "=" + l.Value)
		}
		out[b.String()] = s.Value
	}
	return out
}

// window is the change of the registry over the measured window. A
// series the program no longer exports reads as 0 and is listed in
// absent, never a build failure.
type window struct {
	before, after series
	absent        map[string]bool
}

func (w *window) last(key string) float64 {
	v, ok := w.after[key]
	if !ok {
		w.absent[key] = true
	}
	return v
}

func (w *window) delta(key string) float64 { return w.last(key) - w.before[key] }

// mean is the window mean of a histogram series (registry histograms
// are cumulative since boot, so their quantiles cannot be windowed).
func (w *window) mean(name, labels string) float64 {
	return ratio(w.delta(name+"_sum"+labels), w.delta(name+"_count"+labels))
}
