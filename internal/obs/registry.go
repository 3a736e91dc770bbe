// Package obs is BatchDB's unified observability layer: the
// instruments every subsystem records into (Counter, Gauge, Histogram,
// BusyTracker; metrics.go), a concurrency-safe registry of them by
// name, a stdlib-only Prometheus-text-format exporter served over HTTP
// (/metrics, /healthz), and the freshness tracker that measures the
// paper's defining HTAP quantity — how far the OLAP replica's installed
// snapshot trails the primary's commit watermark, in VIDs and in wall
// time.
//
// Every subsystem keeps its existing stats struct (oltp.Stats,
// olap.SchedulerStats, replica.Stats, DurabilityStats, ...) and
// registers it here as a *view*: the registry holds pointers to the
// live instruments, so there is exactly one source of truth that the
// server's STATS command, the /metrics endpoint, benchmarks and tests
// all read.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a metric family.
type Kind uint8

// Metric family kinds. Histograms are exported in Prometheus summary
// form (quantiles + _sum + _count).
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "summary"
	}
	return "untyped"
}

// Label is one name="value" dimension of a series. Values may contain
// arbitrary bytes; the exporter escapes them.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// series is one labelled instrument inside a family. inst is the live
// instrument: *Counter, *Gauge, *Histogram, func() uint64 (counter
// func) or func() float64 (gauge func).
type series struct {
	labels []Label
	inst   any
}

type family struct {
	name, help string
	kind       Kind
	series     map[string]*series
	order      []*series
}

// Registry is a concurrency-safe collection of metric families. All
// methods may be called from any goroutine; instrument reads during
// export race benignly with writers (each instrument is individually
// atomic, histograms are exported via coherent snapshots).
//
// Registration is by (name, labels): registering the same series twice
// with the same instrument is a no-op, so wiring code can be idempotent.
// Registering a name with a different kind, or a series with a
// different live instrument, panics — those are wiring bugs. Funcs
// cannot be compared, so a CounterFunc or GaugeFunc series registers
// once: registering it again panics the same way.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]* — the
// Prometheus metric-name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelKey reports whether s matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return validName(s)
}

// labelKey canonicalizes a label set (sorted by key) into a map key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// register binds the series (name, labels) to inst, a live instrument
// of a subsystem's stats struct or an export-time callback.
func (r *Registry) register(name, help string, kind Kind, labels []Label, inst any) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	sorted := append([]Label(nil), labels...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for _, l := range sorted {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("obs: invalid label key %q on metric %q", l.Key, name))
		}
	}
	key := labelKey(sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	if s := f.series[key]; s != nil {
		switch inst.(type) {
		case func() uint64, func() float64:
			panic(fmt.Sprintf("obs: series %q%v already bound (a func series registers once)", name, labels))
		}
		if s.inst != inst {
			panic(fmt.Sprintf("obs: series %q%v already bound to a different instrument", name, labels))
		}
		return
	}
	s := &series{labels: sorted, inst: inst}
	f.series[key] = s
	f.order = append(f.order, s)
}

// ObserveCounter registers an existing counter as a series (a registry
// view over a subsystem's stats struct). Idempotent for the same
// instrument.
func (r *Registry) ObserveCounter(name, help string, c *Counter, labels ...Label) {
	r.register(name, help, KindCounter, labels, c)
}

// ObserveGauge registers an existing gauge as a series.
func (r *Registry) ObserveGauge(name, help string, g *Gauge, labels ...Label) {
	r.register(name, help, KindGauge, labels, g)
}

// ObserveHistogram registers an existing histogram as a series.
func (r *Registry) ObserveHistogram(name, help string, h *Histogram, labels ...Label) {
	r.register(name, help, KindHistogram, labels, h)
}

// CounterFunc registers a callback evaluated at export time as a
// counter series. fn must be monotone non-decreasing and safe for
// concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, KindCounter, labels, fn)
}

// GaugeFunc registers a callback evaluated at export time as a gauge
// series. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, KindGauge, labels, fn)
}

// Sample is one exported time-series value.
type Sample struct {
	// Name is the sample's full metric name (families of histogram
	// kind expand into quantile/_sum/_count samples).
	Name   string
	Labels []Label
	Value  float64
}

// snapshotFamily is one family's coherent export view.
type snapshotFamily struct {
	name, help string
	kind       Kind
	samples    []Sample
}

// gather evaluates every series into samples. Families and series keep
// registration order, so successive exports are diffable.
func (r *Registry) gather() []snapshotFamily {
	r.mu.RLock()
	fams := make([]*family, len(r.order))
	copy(fams, r.order)
	orders := make([][]*series, len(fams))
	for i, f := range fams {
		orders[i] = append([]*series(nil), f.order...)
	}
	r.mu.RUnlock()

	out := make([]snapshotFamily, 0, len(fams))
	for i, f := range fams {
		sf := snapshotFamily{name: f.name, help: f.help, kind: f.kind}
		for _, s := range orders[i] {
			switch inst := s.inst.(type) {
			case *Counter:
				sf.samples = append(sf.samples, Sample{Name: f.name, Labels: s.labels, Value: float64(inst.Load())})
			case func() uint64:
				sf.samples = append(sf.samples, Sample{Name: f.name, Labels: s.labels, Value: float64(inst())})
			case *Gauge:
				sf.samples = append(sf.samples, Sample{Name: f.name, Labels: s.labels, Value: float64(inst.Load())})
			case func() float64:
				sf.samples = append(sf.samples, Sample{Name: f.name, Labels: s.labels, Value: inst()})
			case *Histogram:
				snap := inst.Snapshot()
				for _, q := range [...]struct {
					q string
					p float64
				}{{"0.5", 50}, {"0.9", 90}, {"0.99", 99}} {
					ql := append(append([]Label(nil), s.labels...), Label{Key: "quantile", Value: q.q})
					sf.samples = append(sf.samples, Sample{Name: f.name, Labels: ql, Value: float64(snap.Percentile(q.p))})
				}
				sf.samples = append(sf.samples,
					Sample{Name: f.name + "_sum", Labels: s.labels, Value: float64(snap.Sum)},
					Sample{Name: f.name + "_count", Labels: s.labels, Value: float64(snap.Count)})
			}
		}
		out = append(out, sf)
	}
	return out
}

// Samples returns every exported sample (histograms expanded into
// quantile/_sum/_count rows) in registration order — the programmatic
// counterpart of the /metrics endpoint for tests and the STATS command.
func (r *Registry) Samples() []Sample {
	var out []Sample
	for _, f := range r.gather() {
		out = append(out, f.samples...)
	}
	return out
}
