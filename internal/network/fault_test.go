package network

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// Regression test for concurrent large sends: N goroutines sending
// payloads larger than the connection's buffers over one Conn must all
// complete, each message arriving whole and uninterleaved.
func TestConcurrentLargeSends(t *testing.T) {
	cli, srv := pair(t)
	const senders = 6
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			payload := make([]byte, ioBufSize+1+s*1024)
			for i := range payload {
				payload[i] = byte(s)
			}
			if err := cli.Send(uint8(s), payload); err != nil {
				t.Errorf("sender %d: %v", s, err)
			}
		}(s)
	}
	got := make(map[uint8]int)
	for i := 0; i < senders; i++ {
		mt, payload, release, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) != ioBufSize+1+int(mt)*1024 {
			t.Fatalf("sender %d payload %d bytes", mt, len(payload))
		}
		for _, b := range payload {
			if b != byte(mt) {
				t.Fatalf("sender %d payload corrupted", mt)
			}
		}
		got[mt]++
		release()
	}
	wg.Wait()
	for s := 0; s < senders; s++ {
		if got[uint8(s)] != 1 {
			t.Fatalf("sender %d delivered %d messages", s, got[uint8(s)])
		}
	}
}

// stallSender sends 16 MiB messages on c from a new goroutine until a
// Send fails, and returns once the peer has stopped taking bytes: no
// Send has completed for 100 ms, so one is blocked writing into a full
// receive window. The channel yields the failing Send's error.
func stallSender(t *testing.T, c *Conn) <-chan error {
	t.Helper()
	errCh := make(chan error, 1)
	go func() {
		payload := make([]byte, 16<<20)
		for {
			if err := c.Send(1, payload); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for prev := ^uint64(0); ; {
		time.Sleep(100 * time.Millisecond)
		n := c.Stats().BytesSent.Load()
		if n == prev {
			return errCh
		}
		prev = n
		select {
		case err := <-errCh:
			t.Fatalf("Send failed before the peer's window filled: %v", err)
		default:
		}
	}
}

// A sender blocked writing to a peer that never reads must be woken
// with an error when the connection is closed, not hang forever.
func TestSendUnblocksOnClose(t *testing.T) {
	cli, _ := pair(t)
	errCh := stallSender(t, cli)
	cli.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("blocked Send succeeded after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked after Close")
	}
	if cli.Err() == nil {
		t.Fatal("Err() nil after Close")
	}
	// Subsequent sends fail fast.
	if err := cli.Send(1, []byte("x")); err == nil {
		t.Fatal("Send succeeded on failed connection")
	}
}

// A sender blocked writing to a peer that never reads must be woken
// with an error when that peer dies.
func TestSendUnblocksOnPeerDeath(t *testing.T) {
	cli, srv := pair(t)
	errCh := stallSender(t, cli)
	srv.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("blocked Send succeeded after peer death")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked after peer death")
	}
}

// The write deadline bounds a Send to a peer that stopped reading: the
// connection fails with a timeout instead of blocking forever.
func TestSendTimeout(t *testing.T) {
	l, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan *Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	cli, err := DialOpts(l.Addr(), nil, Options{SendTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-accepted // never read
	defer srv.Close()
	payload := make([]byte, 16<<20)
	done := make(chan error, 1)
	go func() {
		for {
			if err := cli.Send(1, payload); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("Send failed with %v, want a write timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send to a peer that never reads outlived its deadline")
	}
	if cli.Err() == nil {
		t.Fatal("connection not failed after the deadline")
	}
}

// An injected sever mid-stream fails the connection deterministically
// and is distinguishable from organic errors.
func TestSeverAfterFrames(t *testing.T) {
	cli, srv := pair(t)
	srv.SetFaultPolicy(SeverAfter(FaultRecv, 2))
	go func() {
		for i := 0; i < 3; i++ {
			if err := cli.Send(1, []byte(fmt.Sprintf("m%d", i))); err != nil {
				return
			}
		}
	}()
	if _, _, release, err := srv.Recv(); err != nil {
		t.Fatalf("first frame: %v", err)
	} else {
		release()
	}
	_, _, _, err := srv.Recv()
	if err == nil {
		t.Fatal("second frame passed a SeverAfter(2) policy")
	}
	if !IsInjectedFault(err) {
		t.Fatalf("sever error not marked injected: %v", err)
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("Done not closed after injected sever")
	}
}

// Dropped frames vanish without breaking the stream.
func TestDropEagerFrame(t *testing.T) {
	cli, srv := pair(t)
	cli.SetFaultPolicy(FaultFunc(func(FaultDir, uint8, int) (FaultAction, time.Duration) {
		return FaultDrop, 0
	}))
	if err := cli.Send(1, []byte("lost")); err != nil {
		t.Fatalf("dropped send reported error: %v", err)
	}
	cli.SetFaultPolicy(nil)
	want := []byte("marker")
	go cli.Send(2, want)
	mt, got, release, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if mt != 2 || !bytes.Equal(got, want) {
		t.Fatalf("received type %d payload %q; dropped frame leaked?", mt, got)
	}
}

// DialRetry retries with backoff until the listener appears, and counts
// the retries.
func TestDialRetry(t *testing.T) {
	l, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	l.Close() // free the port: first attempts must fail

	stats := &Stats{}
	go func() {
		// Rebind the same address after a short outage.
		time.Sleep(80 * time.Millisecond)
		l2, err := Listen(addr, nil)
		if err != nil {
			return // port raced away; the dial will exhaust attempts
		}
		defer l2.Close()
		if c, err := l2.Accept(); err == nil {
			defer c.Close()
			for {
				if _, _, _, err := c.Recv(); err != nil {
					return
				}
			}
		}
	}()
	c, err := DialRetry(addr, stats, Options{}, RetryPolicy{
		Attempts:  20,
		BaseDelay: 20 * time.Millisecond,
		MaxDelay:  50 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Skipf("port rebind raced: %v", err) // environment-dependent; not a code failure
	}
	defer c.Close()
	if stats.Retries.Load() == 0 {
		t.Fatal("connection succeeded with no retries despite initial outage")
	}
}

// DialRetry honours cancellation during backoff.
func TestDialRetryCancel(t *testing.T) {
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		// 127.0.0.1:1 is essentially never listening.
		_, err := DialRetry("127.0.0.1:1", nil, Options{}, RetryPolicy{
			Attempts:  1000,
			BaseDelay: 50 * time.Millisecond,
			MaxDelay:  time.Second,
		}, cancel)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled dial returned a connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DialRetry ignored cancellation")
	}
}
