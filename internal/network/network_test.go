package network

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
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

// frame encodes one wire frame: kind, message type, length, payload.
func frame(kind, msgType uint8, n int, payload []byte) []byte {
	b := []byte{kind, msgType, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(b[2:], uint32(n))
	return append(b, payload...)
}

// rendezvous encodes an announcement of sz bytes.
func rendezvous(sz uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], sz)
	return frame(FrameRendezvous, 1, len(b), b[:])
}

// feed returns a Conn whose peer writes data and then drains whatever
// the Conn writes back (grants), never closing first, so a Recv that
// accepts a frame returns it rather than failing on a short stream.
func feed(t testing.TB, data []byte) *Conn {
	a, b := net.Pipe()
	c := NewConnOpts(b, nil, Options{})
	// The write fails once the Conn refuses a frame and closes its end;
	// Recv's error is what the caller checks.
	go a.Write(data)
	go io.Copy(io.Discard, a)
	t.Cleanup(func() { c.Close(); a.Close() })
	return c
}

// TestRecvRejectsMalformedFrames feeds Recv one complete frame sequence
// per row whose lengths the protocol could not have written. Each must
// fail the connection with a malformed-frame error and no message,
// where an unchecked receiver would return the frame (or, for an
// announcement past 2^63, panic in make).
func TestRecvRejectsMalformedFrames(t *testing.T) {
	big := make([]byte, 2*EagerLimit+1)
	rows := []struct {
		name string
		data []byte
	}{
		{"eager above EagerLimit", frame(FrameEager, 1, EagerLimit+1, big[:EagerLimit+1])},
		{"rendezvous header not 8 bytes", append(
			frame(FrameRendezvous, 1, 4, rendezvous(2 * EagerLimit)[6:]),
			frame(FrameBulk, 1, 2*EagerLimit, big[:2*EagerLimit])...)},
		{"announced size at EagerLimit", append(rendezvous(EagerLimit),
			frame(FrameBulk, 1, EagerLimit, big[:EagerLimit])...)},
		{"announced size past MaxUint32", rendezvous(1 << 63)},
		{"bulk size differs from announcement", append(rendezvous(2*EagerLimit),
			frame(FrameBulk, 1, 2*EagerLimit+1, big)...)},
		{"bulk with no announcement", frame(FrameBulk, 1, 10, big[:10])},
		{"grant with a payload", frame(FrameGrant, 0, 6, frame(FrameEager, 1, 0, nil))},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := feed(t, row.data)
			done := make(chan error, 1)
			go func() {
				_, p, _, err := c.Recv()
				if err == nil {
					err = fmt.Errorf("accepted a %d-byte message", len(p))
				}
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, errMalformed) {
					t.Fatalf("Recv: %v, want a malformed-frame error", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Recv neither failed nor returned")
			}
			if c.Err() == nil {
				t.Fatal("connection not failed")
			}
		})
	}
}

// wire is a net.Conn that records what is written to it.
type wire struct {
	net.Conn
	out bytes.Buffer
}

func (w *wire) Write(p []byte) (int, error) { return w.out.Write(p) }

// FuzzRecv writes arbitrary bytes into one end of a pipe and calls Recv
// on the other until it fails. Recv must not panic, and every eager
// message it accepts, sent again with Send, must be the bytes of a frame
// of the input, in input order.
func FuzzRecv(f *testing.F) {
	f.Add(frame(FrameEager, 7, 5, []byte("hello")))
	f.Add(append(frame(FrameGrant, 0, 0, nil), frame(FrameEager, 1, 0, nil)...))
	f.Add(append(rendezvous(EagerLimit+1), frame(FrameBulk, 1, 16, make([]byte, 16))...))
	f.Add(rendezvous(1 << 63))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := net.Pipe()
		c := NewConnOpts(b, nil, Options{})
		// An accepted announcement reserves a buffer of its size: sever
		// above a few MiB so an input cannot make the fuzzer allocate
		// gigabytes.
		c.SetFaultPolicy(FaultFunc(func(dir FaultDir, kind, _ uint8, n int) (FaultAction, time.Duration) {
			if dir == FaultRecv && kind == FrameRendezvous && n > 4*EagerLimit {
				return FaultSever, 0
			}
			return FaultPass, 0
		}))
		go func() {
			a.Write(data)
			a.Close()
		}()
		go io.Copy(io.Discard, a)
		w := &wire{}
		resend := NewConnOpts(w, nil, Options{})
		pos := 0
		for {
			mt, p, release, err := c.Recv()
			if err != nil {
				break
			}
			if len(p) <= EagerLimit {
				w.out.Reset()
				if err := resend.Send(mt, p); err != nil {
					t.Fatal(err)
				}
				i := bytes.Index(data[pos:], w.out.Bytes())
				if i < 0 {
					t.Fatalf("accepted message type %d (%d bytes) re-encodes to a frame not in the input after offset %d", mt, len(p), pos)
				}
				pos += i + w.out.Len()
			}
			release()
		}
		c.Close()
	})
}
