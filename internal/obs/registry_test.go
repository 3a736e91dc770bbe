package obs

import (
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

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("batchdb_test_total", "help", L("class", "a"))
	c2 := r.Counter("batchdb_test_total", "help", L("class", "a"))
	if c1 != c2 {
		t.Fatal("same series returned different counters")
	}
	c3 := r.Counter("batchdb_test_total", "help", L("class", "b"))
	if c3 == c1 {
		t.Fatal("different label values shared a counter")
	}
	// Label order must not matter.
	g1 := r.Gauge("batchdb_test_gauge", "", L("a", "1"), L("b", "2"))
	g2 := r.Gauge("batchdb_test_gauge", "", L("b", "2"), L("a", "1"))
	if g1 != g2 {
		t.Fatal("label order changed series identity")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("batchdb_conflict", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("batchdb_conflict", "")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	for _, name := range []string{"", "1abc", "has space", "dash-ed", "utf8é"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q did not panic", name)
				}
			}()
			NewRegistry().Counter(name, "")
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
				r.Counter("batchdb_conc_total", "h", lbl).Inc()
				r.Gauge("batchdb_conc_gauge", "h", lbl).Set(int64(i))
				r.Histogram("batchdb_conc_ns", "h").Record(int64(i + 1))
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

func TestRenderLine(t *testing.T) {
	r := NewRegistry()
	r.Counter("batchdb_line_total", "", L("class", "x")).Add(3)
	r.Gauge("batchdb_line_gauge", "").Set(-1)
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
