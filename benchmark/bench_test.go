package main

import (
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// TestQuickSmoke runs every workload once with 1 s windows, two of them
// traced, and checks what a run must always get right: the metric names
// it prints are exactly the ones BENCHMARK.json declares, every value
// has a unit, no correctness check fails, and nothing is left behind.
// It asserts no timing.
func TestQuickSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(sp.Workloads), len(workloadOrder))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	goroutines := runtime.NumGoroutine()

	for i, w := range sp.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
		base := t.TempDir()
		cfg := config{workload: w.Name, seed: int64(i + 1), quick: true, trace: i%2 == 0, base: base}
		env, res, err := run(cfg, sp)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		declared := sp.EndToEnd
		if cfg.trace {
			declared = sp.PerLayer
		}
		if len(res.Metrics) != len(declared) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json declares %d", w.Name, len(res.Metrics), len(declared))
		}
		for _, m := range declared {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: declared metric %s was not printed", w.Name, m.Name)
			}
			if !name.MatchString(m.Name) || got.Unit == "" {
				t.Errorf("%s: metric %q has unit %q", w.Name, m.Name, got.Unit)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, res.Attempted, res.Failed, env.Failures)
		}
		if left, _ := os.ReadDir(base); len(left) != 0 {
			t.Errorf("%s: run left %d entries in its scratch directory", w.Name, len(left))
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
