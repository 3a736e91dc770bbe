package network

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// pair returns two connected Conns (client, server).
func pair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	cli, err := Dial(l.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { cli.Close(); r.c.Close() })
	return cli, r.c
}

func TestEagerRoundTrip(t *testing.T) {
	cli, srv := pair(t)
	want := []byte("hello batchdb")
	errCh := make(chan error, 1)
	go func() { errCh <- cli.Send(7, want) }()
	mt, got, release, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	// Send counts the frame after writing it, so the receiver can see the
	// frame before the sender's counter moves: read the stats only once
	// Send has returned.
	if err := <-errCh; err != nil {
		t.Fatalf("send: %v", err)
	}
	if mt != 7 || !bytes.Equal(got, want) {
		t.Fatalf("got type %d payload %q", mt, got)
	}
	if cli.Stats().EagerMsgs.Load() != 1 || cli.Stats().RendezvousMsgs.Load() != 0 {
		t.Fatalf("eager path not taken: %+v", cli.Stats())
	}
}

func TestLargeMessageRendezvous(t *testing.T) {
	cli, srv := pair(t)
	want := make([]byte, EagerLimit+12345)
	for i := range want {
		want[i] = byte(i * 31)
	}
	// The sender blocks until the receiver grants, and the receiver's
	// Recv loop services the handshake — both sides must run.
	errCh := make(chan error, 1)
	go func() { errCh <- cli.Send(9, want) }()
	// The client must also run a reader to receive the grant.
	go func() {
		if _, _, _, err := cli.Recv(); err != nil {
			// Connection closes at test end; ignore.
			_ = err
		}
	}()
	mt, got, release, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if err := <-errCh; err != nil {
		t.Fatalf("send: %v", err)
	}
	if mt != 9 || !bytes.Equal(got, want) {
		t.Fatalf("large payload mismatch (type %d, %d bytes)", mt, len(got))
	}
	if cli.Stats().RendezvousMsgs.Load() != 1 {
		t.Fatalf("rendezvous path not taken: %+v", cli.Stats())
	}
}

func TestManyMessagesOrdered(t *testing.T) {
	cli, srv := pair(t)
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			if err := cli.Send(1, []byte(fmt.Sprintf("msg-%04d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		_, got, release, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("msg-%04d", i); string(got) != want {
			t.Fatalf("message %d = %q, want %q (reordered?)", i, got, want)
		}
		release()
	}
	// Buffer pool must have recycled.
	if srv.Stats().BuffersReused.Load() == 0 {
		t.Fatal("receive buffers never reused")
	}
}

func TestConcurrentSenders(t *testing.T) {
	cli, srv := pair(t)
	const senders, per = 4, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := cli.Send(uint8(s), []byte{byte(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	counts := map[uint8]int{}
	for i := 0; i < senders*per; i++ {
		mt, _, release, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		counts[mt]++
		release()
	}
	wg.Wait()
	for s := 0; s < senders; s++ {
		if counts[uint8(s)] != per {
			t.Fatalf("sender %d delivered %d messages", s, counts[uint8(s)])
		}
	}
}

func TestRecvAfterClose(t *testing.T) {
	cli, srv := pair(t)
	cli.Close()
	if _, _, _, err := srv.Recv(); err == nil {
		t.Fatal("Recv after peer close returned no error")
	}
}

func TestBufferPoolReserve(t *testing.T) {
	st := &Stats{}
	p := newBufferPool(st)
	p.reserve(1000)
	b := p.get(900)
	if cap(b) < 900 {
		t.Fatal("reserve did not provision capacity")
	}
	if st.BuffersReused.Load() != 1 {
		t.Fatalf("reserved buffer not reused: %+v", st)
	}
	p.put(b)
	b2 := p.get(1000)
	if st.BuffersReused.Load() != 2 {
		t.Fatal("returned buffer not reused")
	}
	_ = b2
}
