package network

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"runtime"
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
	if cli.Stats().Msgs.Load() != 1 {
		t.Fatalf("message not counted: %+v", cli.Stats())
	}
}

// A message larger than the connection's buffers arrives whole, its
// receive buffer grown as the bytes came in.
func TestLargeMessageRoundTrip(t *testing.T) {
	cli, srv := pair(t)
	want := make([]byte, 2*ioBufSize+12345)
	for i := range want {
		want[i] = byte(i * 31)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- cli.Send(9, want) }()
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

// frame encodes one wire frame: message type, length, payload.
func frame(msgType uint8, n uint32, payload []byte) []byte {
	b := []byte{msgType, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(b[1:], n)
	return append(b, payload...)
}

// TestRecvRejectsMalformedFrames feeds Recv a header claiming 4 GiB - 1
// bytes, then a few bytes and EOF. Recv must fail the connection having
// allocated memory only for what arrived, where a receiver that trusted
// the length field would allocate 4 GiB.
func TestRecvRejectsMalformedFrames(t *testing.T) {
	a, b := net.Pipe()
	c := NewConnOpts(b, nil, Options{})
	t.Cleanup(func() { c.Close() })
	data := frame(1, math.MaxUint32, []byte("short"))
	go func() {
		a.Write(data)
		a.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, p, _, err := c.Recv()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("accepted a %d-byte message", len(p))
	}
	if c.Err() == nil {
		t.Fatal("connection not failed")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("Recv allocated %d bytes for a %d-byte frame", grew, len(data))
	}
}

// wire is a net.Conn that records what is written to it.
type wire struct {
	net.Conn
	out bytes.Buffer
}

func (w *wire) Write(p []byte) (int, error) { return w.out.Write(p) }

// FuzzRecv writes arbitrary bytes into one end of a pipe and calls Recv
// on the other until it fails. Recv must not panic, and every message it
// accepts, sent again with Send, must be the bytes of a frame of the
// input, in input order.
func FuzzRecv(f *testing.F) {
	f.Add(frame(7, 5, []byte("hello")))
	f.Add(append(frame(1, 0, nil), frame(2, 3, []byte("abc"))...))
	f.Add(frame(1, ioBufSize+1, make([]byte, 16)))
	f.Add(frame(1, math.MaxUint32, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := net.Pipe()
		c := NewConnOpts(b, nil, Options{})
		go func() {
			a.Write(data)
			a.Close()
		}()
		w := &wire{}
		resend := NewConnOpts(w, nil, Options{})
		pos := 0
		for {
			mt, p, release, err := c.Recv()
			if err != nil {
				break
			}
			w.out.Reset()
			if err := resend.Send(mt, p); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data[pos:], w.out.Bytes()) {
				t.Fatalf("accepted message type %d (%d bytes) re-encodes to a frame not at input offset %d", mt, len(p), pos)
			}
			pos += w.out.Len()
			release()
		}
		c.Close()
	})
}
