package olap

import (
	"sync"
	"testing"
	"time"
)

// batchLog records when each batch started executing and how many
// queries it carried.
type batchLog struct {
	mu     sync.Mutex
	starts []time.Time
	sizes  []int
	// hold, when set, keeps the next batch executing until it is closed.
	hold chan struct{}
}

func (l *batchLog) run(qs []int, _ uint64) []int {
	l.mu.Lock()
	l.starts = append(l.starts, time.Now())
	l.sizes = append(l.sizes, len(qs))
	hold := l.hold
	l.hold = nil
	l.mu.Unlock()
	if hold != nil {
		<-hold
	}
	return make([]int, len(qs))
}

// holdNext makes the next batch to start execute until the returned
// channel is closed.
func (l *batchLog) holdNext() chan struct{} {
	hold := make(chan struct{})
	l.mu.Lock()
	l.hold = hold
	l.mu.Unlock()
	return hold
}

// followedShared counts the batches that followed a batch of two or more
// queries.
func (l *batchLog) followedShared() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for i := 1; i < len(l.sizes); i++ {
		if l.sizes[i-1] >= 2 {
			n++
		}
	}
	return n
}

func (l *batchLog) batches() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sizes)
}

func newHeartbeatScheduler(t *testing.T) (*Scheduler[int, int], *batchLog) {
	r := NewReplica(1)
	r.CreateTable(kvSchema(), 16)
	l := &batchLog{}
	s := NewScheduler(r, StaticPrimary(0), l.run)
	s.Start()
	t.Cleanup(s.Close)
	return s, l
}

// Sessions that ask concurrently are answered on the heartbeat: once a
// batch has carried two queries, the next forms no sooner than one beat
// after it did. The sessions ask until a fixed number of batches have
// followed a shared one, so a slow host lengthens the run instead of
// failing it.
func TestHeartbeatSpacesConcurrentBatches(t *testing.T) {
	s, l := newHeartbeatScheduler(t)
	const sessions, want = 4, 6
	deadline := time.Now().Add(5 * time.Second)
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for l.followedShared() < want && time.Now().Before(deadline) {
				if _, err := s.Query(g); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	end := time.Now()

	// A batch starts executing a freshness barrier after it formed; with
	// a static primary that is a no-op round, so starts stand in for
	// formation times up to scheduling slack. Unpaced, these batches
	// would follow each other within microseconds.
	const slack = batchHeartbeat / 3
	paced, first := 0, -1
	for i := 1; i < len(l.starts); i++ {
		if l.sizes[i-1] < 2 {
			continue
		}
		if first < 0 {
			first = i - 1
		}
		paced++
		if gap := l.starts[i].Sub(l.starts[i-1]); gap < batchHeartbeat-slack {
			t.Fatalf("batch %d (%d queries) started %v after a batch of %d, want at least %v",
				i, l.sizes[i], gap, l.sizes[i-1], batchHeartbeat)
		}
	}
	if paced < want {
		t.Fatalf("only %d of %d batches followed a concurrent one within 5 s: the sessions never met in a batch", paced, len(l.sizes))
	}
	// Sessions that re-ask at once all make the next beat, so from the
	// first shared batch on there is one batch a beat.
	beats := int(end.Sub(l.starts[first]) / batchHeartbeat)
	if got := len(l.starts) - first; got > beats+2 {
		t.Errorf("%d batches in at most %d beats after the first shared one", got, beats)
	}
}

// The beat is measured from when a batch formed, not from when it ended:
// once a batch has run longer than a beat, the next forms as soon as a
// query is there, and the beat adds no idle time to a busy executor.
func TestHeartbeatAddsNoIdleAfterLongBatch(t *testing.T) {
	s, l := newHeartbeatScheduler(t)
	var wg sync.WaitGroup
	ask := func(q int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Query(q); err != nil {
				t.Error(err)
			}
		}()
	}
	untilBatches := func(n int) {
		for l.batches() < n {
			time.Sleep(time.Millisecond)
		}
	}
	untilQueued := func(n int) {
		for s.QueueDepth() < n {
			time.Sleep(time.Millisecond)
		}
	}

	// A pair queues behind a held first batch and shares the next one,
	// which turns pacing on; that batch is held for two beats, while a
	// fourth query queues behind it.
	first := l.holdNext()
	ask(0)
	untilBatches(1)
	long := l.holdNext()
	ask(1)
	ask(2)
	untilQueued(2)
	close(first)
	untilBatches(2)
	ask(3)
	untilQueued(1)
	time.Sleep(2 * batchHeartbeat)
	released := time.Now()
	close(long)
	wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.sizes) != 3 || l.sizes[1] != 2 {
		t.Fatalf("batch sizes %v, want [1 2 1]", l.sizes)
	}
	if idle := l.starts[2].Sub(released); idle > batchHeartbeat/2 {
		t.Fatalf("the batch after one that ran two beats started %v after it ended, want at once", idle)
	}
}

// A session that asks, waits for the answer and asks again is never held
// for the beat — neither on a fresh scheduler nor, after heartbeatQuiet
// single-query batches, on one that concurrent sessions have just left.
func TestHeartbeatLeavesLoneSessionAlone(t *testing.T) {
	s, l := newHeartbeatScheduler(t)
	const n = 100
	ask := func() time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := s.Query(i); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	if d := ask(); d > n*batchHeartbeat/10 {
		t.Fatalf("%d sequential queries on a fresh scheduler took %v: the lone session was paced", n, d)
	}

	// Two queries that must share a batch: they queue while the
	// dispatcher is held inside a third one's.
	hold := l.holdNext()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := s.Query(g); err != nil {
				t.Error(err)
			}
		}(g)
		if g == 0 {
			for l.batches() == n { // until the held batch has started
				time.Sleep(time.Millisecond)
			}
		}
	}
	for s.QueueDepth() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(hold)
	wg.Wait()
	l.mu.Lock()
	last := l.sizes[len(l.sizes)-1]
	l.mu.Unlock()
	if last != 2 {
		t.Fatalf("the queued pair ran in a batch of %d", last)
	}
	if d := ask(); d > (heartbeatQuiet+1)*batchHeartbeat+n*batchHeartbeat/10 {
		t.Fatalf("%d sequential queries after a concurrent burst took %v: pacing did not stop", n, d)
	}
}
