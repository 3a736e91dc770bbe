package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func findSample(t *testing.T, samples []Sample, name string, labels ...Label) Sample {
	t.Helper()
outer:
	for _, s := range samples {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		for i := range labels {
			if s.Labels[i] != labels[i] {
				continue outer
			}
		}
		return s
	}
	t.Fatalf("sample %s%v not found in %d samples", name, labels, len(samples))
	return Sample{}
}

// A series is its name and label set, labels in any order: other label
// values make another series, and reordered labels name the same one.
func TestRegistrySeriesIdentity(t *testing.T) {
	r := NewRegistry()
	var a, b Gauge
	r.ObserveGauge("batchdb_test_gauge", "", &a, L("a", "1"), L("b", "2"))
	r.ObserveGauge("batchdb_test_gauge", "", &a, L("b", "2"), L("a", "1"))
	r.ObserveGauge("batchdb_test_gauge", "", &b, L("a", "1"), L("b", "3"))
	a.Set(1)
	b.Set(2)
	s := r.Samples()
	if len(s) != 2 {
		t.Fatalf("%d samples, want one per label set", len(s))
	}
	if v := findSample(t, s, "batchdb_test_gauge", L("a", "1"), L("b", "2")).Value; v != 1 {
		t.Fatalf("series {a=1,b=2} exported %v, want 1", v)
	}
	if v := findSample(t, s, "batchdb_test_gauge", L("a", "1"), L("b", "3")).Value; v != 2 {
		t.Fatalf("series {a=1,b=3} exported %v, want 2", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reordered labels with another instrument did not panic: label order changed series identity")
		}
	}()
	r.ObserveGauge("batchdb_test_gauge", "", &b, L("b", "2"), L("a", "1"))
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.ObserveCounter("batchdb_conflict", "", new(Counter))
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.ObserveGauge("batchdb_conflict", "", new(Gauge))
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	for _, name := range []string{"", "1abc", "has space", "dash-ed", "utf8é"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q did not panic", name)
				}
			}()
			NewRegistry().ObserveCounter(name, "", new(Counter))
		}()
	}
}

func TestRegistryObserveAdoptsAndIsIdempotent(t *testing.T) {
	r := NewRegistry()
	var c struct{ n Counter }
	r.ObserveCounter("batchdb_adopted_total", "h", &c.n)
	r.ObserveCounter("batchdb_adopted_total", "h", &c.n) // same pointer: fine
	c.n.Add(7)
	s := findSample(t, r.Samples(), "batchdb_adopted_total")
	if s.Value != 7 {
		t.Fatalf("adopted counter exported %v, want 7", s.Value)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("binding a second instrument to the same series did not panic")
		}
	}()
	var other Counter
	r.ObserveCounter("batchdb_adopted_total", "h", &other)
}

// Concurrent registration and recording from many goroutines while
// another goroutine continuously exports: every sample set must be
// internally coherent and the race detector must stay quiet.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 500
	var (
		counters [workers]Counter
		gauges   [workers]Gauge
		hist     Histogram
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	expDone := make(chan struct{})

	// Exporter goroutine hammers Samples + WritePrometheus. It runs on
	// its own done channel: it only exits once stop closes, which
	// happens after the workers' wg.Wait.
	go func() {
		defer close(expDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			for _, s := range r.Samples() {
				if math.IsNaN(s.Value) {
					t.Errorf("NaN sample %s", s.Name)
					return
				}
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := L("worker", string(rune('a'+w)))
			for i := 0; i < perWorker; i++ {
				r.ObserveCounter("batchdb_conc_total", "h", &counters[w], lbl)
				counters[w].Inc()
				r.ObserveGauge("batchdb_conc_gauge", "h", &gauges[w], lbl)
				gauges[w].Set(int64(i))
				r.ObserveHistogram("batchdb_conc_ns", "h", &hist)
				hist.Record(int64(i + 1))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-expDone

	samples := r.Samples()
	var total float64
	for _, s := range samples {
		if s.Name == "batchdb_conc_total" {
			total += s.Value
		}
	}
	if total != workers*perWorker {
		t.Fatalf("counters sum to %v, want %d", total, workers*perWorker)
	}
	if c := findSample(t, samples, "batchdb_conc_ns_count"); c.Value != workers*perWorker {
		t.Fatalf("histogram count %v, want %d", c.Value, workers*perWorker)
	}
}

func TestRegistryFuncs(t *testing.T) {
	r := NewRegistry()
	var n uint64 = 42
	r.CounterFunc("batchdb_fn_total", "h", func() uint64 { return n })
	r.GaugeFunc("batchdb_fn_gauge", "h", func() float64 { return 2.5 })
	s := r.Samples()
	if v := findSample(t, s, "batchdb_fn_total").Value; v != 42 {
		t.Fatalf("counter func exported %v", v)
	}
	if v := findSample(t, s, "batchdb_fn_gauge").Value; v != 2.5 {
		t.Fatalf("gauge func exported %v", v)
	}
}

// Funcs cannot be compared, so registering a func series a second time
// must raise the registry's own wiring-bug panic naming the series, not
// a runtime comparison error.
func TestRegistryFuncSeriesRegistersOnce(t *testing.T) {
	for _, reg := range []func(r *Registry){
		func(r *Registry) { r.CounterFunc("batchdb_func_total", "", func() uint64 { return 1 }, L("side", "a")) },
		func(r *Registry) { r.GaugeFunc("batchdb_func_gauge", "", func() float64 { return 1 }, L("side", "a")) },
	} {
		r := NewRegistry()
		reg(r)
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "already bound") || !strings.Contains(msg, "batchdb_func_") {
					t.Fatalf("second registration panicked with %q, want the registry's already-bound panic naming the series", msg)
				}
			}()
			reg(r)
		}()
	}
}

func TestRenderLine(t *testing.T) {
	r := NewRegistry()
	var c Counter
	var g Gauge
	r.ObserveCounter("batchdb_line_total", "", &c, L("class", "x"))
	r.ObserveGauge("batchdb_line_gauge", "", &g)
	c.Add(3)
	g.Set(-1)
	line := r.RenderLine()
	for _, want := range []string{"batchdb_line_total{class=x}=3", "batchdb_line_gauge=-1"} {
		if !strings.Contains(line, want) {
			t.Fatalf("RenderLine %q missing %q", line, want)
		}
	}
	if strings.ContainsAny(line, "\n\t") {
		t.Fatalf("RenderLine contains framing bytes: %q", line)
	}
}
