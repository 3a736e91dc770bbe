package olap

import (
	"sync"
	"sync/atomic"
)

// Pool is a bounded set of workers for fan-out work: the replica's apply
// rounds and the executor's scans and builds each own one. ForEach runs
// a set of tasks on up to Workers() goroutines pulling indices off an
// atomic work-stealing cursor; every task also holds a slot of the
// pool's semaphore, so concurrent ForEach calls on one pool (the
// executor builds several join sides at once) share its budget instead
// of multiplying it. A task must not call ForEach on the pool it runs
// on: it would wait for slots its own caller may be holding.
type Pool struct {
	workers int
	sem     chan struct{}
}

// NewPool creates a pool of workers goroutines; workers <= 0 means 1.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = 1
	}
	return &Pool{workers: workers, sem: make(chan struct{}, workers)}
}

// Workers returns the pool's parallelism.
func (p *Pool) Workers() int { return p.workers }

// ForEach runs fn for every task index in [0, n) and returns when all
// have run. The worker argument is a dense id in [0, min(Workers(), n))
// for per-worker scratch. With one worker (or one task) the tasks run in
// index order on the caller's goroutine.
func (p *Pool) ForEach(n int, fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	w := min(p.workers, n)
	if w == 1 {
		p.sem <- struct{}{}
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		<-p.sem
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				p.sem <- struct{}{}
				fn(worker, i)
				<-p.sem
			}
		}(g)
	}
	wg.Wait()
}
