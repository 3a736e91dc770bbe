package olap

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// A query whose batch outlives its deadline must return ctx.Err()
// instead of blocking until the batch finishes.
func TestQueryContextDeadline(t *testing.T) {
	r := NewReplica(1)
	r.CreateTable(kvSchema(), 16)
	block := make(chan struct{})
	s := NewScheduler(r, StaticPrimary(0), func(qs []int, _ uint64) []int {
		<-block
		return make([]int, len(qs))
	})
	s.Start()
	defer func() {
		close(block)
		s.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.QueryContext(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryContext past deadline = %v, want DeadlineExceeded", err)
	}
}

// A canceled context must release the caller during the wait phase too.
func TestQueryContextCancel(t *testing.T) {
	r := NewReplica(1)
	r.CreateTable(kvSchema(), 16)
	block := make(chan struct{})
	s := NewScheduler(r, StaticPrimary(0), func(qs []int, _ uint64) []int {
		<-block
		return make([]int, len(qs))
	})
	s.Start()
	defer func() {
		close(block)
		s.Close()
	}()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.QueryContext(ctx, 1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("QueryContext after cancel = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("QueryContext did not return after cancel")
	}
}

// The regression this file pins (ISSUE 7 satellite): Query racing Close
// must never block forever — every in-flight query returns either its
// result or ErrSchedulerClosed. Run with -race.
func TestQueryCloseRaceNeverBlocks(t *testing.T) {
	iters := 50
	if testing.Short() {
		iters = 10
	}
	for iter := 0; iter < iters; iter++ {
		r := NewReplica(1)
		r.CreateTable(kvSchema(), 16)
		s := NewScheduler(r, StaticPrimary(0), func(qs []int, _ uint64) []int {
			return make([]int, len(qs))
		})
		s.Start()
		const clients = 8
		start := make(chan struct{})
		errs := make(chan error, clients)
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				_, err := s.Query(g)
				errs <- err
			}(g)
		}
		close(start)
		s.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("query blocked forever across Close")
		}
		close(errs)
		for err := range errs {
			if err != nil && !errors.Is(err, ErrSchedulerClosed) {
				t.Fatalf("query racing Close = %v, want nil or ErrSchedulerClosed", err)
			}
		}
	}
}

// Close on a scheduler whose Start was never called must not hang
// waiting for a loop that doesn't exist.
func TestCloseNeverStarted(t *testing.T) {
	r := NewReplica(1)
	r.CreateTable(kvSchema(), 16)
	s := NewScheduler(r, StaticPrimary(0), func(qs []int, _ uint64) []int {
		return make([]int, len(qs))
	})
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close on never-started scheduler hung")
	}
	// The enqueue select may win against the closed `closing` channel
	// (both ready, runtime picks), so the wait phase must still unblock:
	// Close on a never-started scheduler closes `closed` itself.
	if _, err := s.Query(1); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Query after Close = %v, want ErrSchedulerClosed", err)
	}
	// Start after Close must be a no-op — a loop launched now would
	// double-close `closed`.
	s.Start()
	if _, err := s.Query(2); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Query after Close+Start = %v, want ErrSchedulerClosed", err)
	}
}

// When the dispatcher answers a batch and shuts down at the same
// moment, the caller must receive the computed answer, not a spurious
// ErrSchedulerClosed: the loop buffers every reply before exiting, so
// the close signal may never shadow a ready result.
func TestAnswerPreferredOverClose(t *testing.T) {
	r := NewReplica(1)
	r.CreateTable(kvSchema(), 16)
	var entered sync.Once
	enteredC := make(chan struct{})
	release := make(chan struct{})
	s := NewScheduler(r, StaticPrimary(0), func(qs []int, _ uint64) []int {
		entered.Do(func() { close(enteredC) })
		<-release
		out := make([]int, len(qs))
		for i := range qs {
			out[i] = qs[i] * 2
		}
		return out
	})
	s.Start()
	resCh := make(chan error, 1)
	go func() {
		v, err := s.Query(21)
		if err == nil && v != 42 {
			err = errors.New("wrong value")
		}
		resCh <- err
	}()
	<-enteredC
	closeDone := make(chan struct{})
	go func() { s.Close(); close(closeDone) }()
	// Let Close commit (close the closing channel) before the batch is
	// allowed to finish, so reply and closed become ready together.
	time.Sleep(10 * time.Millisecond)
	close(release)
	select {
	case err := <-resCh:
		if err != nil {
			t.Fatalf("answered batch lost to close race: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query hung")
	}
	<-closeDone
}
