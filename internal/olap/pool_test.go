package olap

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 3, 100} {
			runs := make([]atomic.Int32, n)
			var badWorker atomic.Bool
			p.ForEach(n, func(worker, task int) {
				if worker < 0 || worker >= min(workers, n) {
					badWorker.Store(true)
				}
				runs[task].Add(1)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, got)
				}
			}
			if badWorker.Load() {
				t.Fatalf("workers=%d n=%d: a worker id fell outside [0, %d)", workers, n, min(workers, n))
			}
		}
	}
}

// Two ForEach calls on one pool share its budget: together they never
// have more than Workers() tasks in flight.
func TestPoolBoundsConcurrentForEach(t *testing.T) {
	p := NewPool(3)
	var mu sync.Mutex
	inFlight, most := 0, 0
	task := func(_, _ int) {
		mu.Lock()
		inFlight++
		most = max(most, inFlight)
		mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ForEach(60, task)
		}()
	}
	wg.Wait()
	if most > p.Workers() {
		t.Fatalf("%d tasks in flight on a pool of %d workers", most, p.Workers())
	}
}

// goroutineID returns the running goroutine's id from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// With one worker the tasks run in index order on the caller's
// goroutine.
func TestPoolSingleWorkerRunsInline(t *testing.T) {
	p := NewPool(1)
	caller := goroutineID()
	var order []int
	p.ForEach(10, func(worker, task int) {
		if worker != 0 || goroutineID() != caller {
			t.Errorf("task %d ran as worker %d on another goroutine", task, worker)
		}
		order = append(order, task)
	})
	for i, task := range order {
		if task != i {
			t.Fatalf("tasks ran in order %v", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("%d of 10 tasks ran", len(order))
	}
}
