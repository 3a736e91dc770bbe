// Package network is BatchDB's transport for shipping updates between
// machines (paper §6).
//
// The paper uses RDMA over 4xFDR InfiniBand; this machine has neither,
// so the package substitutes a TCP transport. Every message is one
// frame, [msgType u8][len u32][payload], written whole under the
// connection's write lock. The paper announces each large message and
// waits for the receiver's grant because a one-sided RDMA write needs a
// registered buffer at the receiver; here TCP's receive window does that
// job, since a sender cannot write further ahead than the receiver has
// read. The receiver lands payloads in buffers drawn from a pool (the
// analogue of the paper's pre-registered, cached receive buffers), and
// grows a buffer for a frame only as the frame's bytes arrive, so a
// length field costs memory only for the bytes the peer actually sent.
//
// The paper assumes the replication channel is always available; a TCP
// substitute cannot, so the transport treats failure as a first-class
// state. A connection that errors (peer death, deadline, injected
// fault, Close) transitions to failed exactly once: the first error is
// recorded, Done() is closed, and the socket is torn down, so a sender
// blocked writing to a peer that stopped reading returns that error
// instead of hanging. An optional per-frame write deadline bounds how
// long a send can stall on a sick peer, and DialRetry adds exponential
// backoff with jitter for connection establishment. A FaultPolicy hook
// injects deterministic drop/delay/sever faults at frame granularity so
// every failure mode is testable without real network flakiness.
//
// The code path that matters to BatchDB — serialize update batches,
// ship them, hand them to the remote replica — is identical in shape;
// only the wire is slower.
package network

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"batchdb/internal/obs"
)

// ioBufSize sizes each connection's read and write buffers, and is the
// largest buffer Recv allocates for a frame before any of its bytes
// have arrived.
const ioBufSize = 1 << 20

// Stats counts transport events.
type Stats struct {
	// Msgs counts messages sent, one frame each.
	Msgs           obs.Counter
	BytesSent      obs.Counter
	BytesReceived  obs.Counter
	BuffersReused  obs.Counter
	BuffersAlloced obs.Counter
	// Retries counts dial attempts beyond each first try (DialRetry).
	Retries obs.Counter
	// Severed counts connections that transitioned to failed (error,
	// deadline, injected fault, or Close).
	Severed obs.Counter
}

// Options bounds how long a connection may stall on a sick peer. The
// zero value disables the deadline (trusted-loopback behaviour).
type Options struct {
	// SendTimeout is the write deadline applied to each frame write
	// (including its flush). Zero means no deadline.
	SendTimeout time.Duration
}

// ErrClosed reports use of a connection after Close.
var ErrClosed = errors.New("network: connection closed")

// Conn is a message-oriented connection. Send may be called from
// multiple goroutines; Recv must be called from a single reader
// goroutine (the usual demultiplexer pattern).
type Conn struct {
	c    net.Conn
	r    *bufio.Reader
	wm   sync.Mutex
	w    *bufio.Writer
	opts Options

	failOnce sync.Once
	done     chan struct{}
	errMu    sync.Mutex
	err      error

	fault atomic.Pointer[faultHolder]

	pool  *bufferPool
	stats *Stats
}

// NewConnOpts wraps an established net.Conn with the given deadlines.
func NewConnOpts(c net.Conn, stats *Stats, opts Options) *Conn {
	if stats == nil {
		stats = &Stats{}
	}
	return &Conn{
		c:     c,
		r:     bufio.NewReaderSize(c, ioBufSize),
		w:     bufio.NewWriterSize(c, ioBufSize),
		opts:  opts,
		done:  make(chan struct{}),
		pool:  newBufferPool(stats),
		stats: stats,
	}
}

// Dial connects to a BatchDB peer.
func Dial(addr string, stats *Stats) (*Conn, error) {
	return DialOpts(addr, stats, Options{})
}

// DialOpts connects to a BatchDB peer with the given deadlines.
func DialOpts(addr string, stats *Stats, opts Options) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: dial %s: %w", addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewConnOpts(c, stats, opts), nil
}

// RetryPolicy parameterizes DialRetry: exponential backoff with jitter
// between attempts.
type RetryPolicy struct {
	// Attempts is the total number of dial attempts (values below 1 mean
	// a single try).
	Attempts int
	// BaseDelay is the backoff before the second attempt (default 25ms);
	// it doubles per attempt up to MaxDelay (default 1s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// retryJitter is the largest random fraction of the current delay
// added to each backoff sleep; it decorrelates reconnect storms.
const retryJitter = 0.2

func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.Attempts < 1 {
		rp.Attempts = 1
	}
	if rp.BaseDelay <= 0 {
		rp.BaseDelay = 25 * time.Millisecond
	}
	if rp.MaxDelay <= 0 {
		rp.MaxDelay = time.Second
	}
	return rp
}

// DialRetry dials with retry and exponential backoff + jitter. A nil
// cancel channel disables cancellation; closing it aborts the next
// backoff sleep and returns the last dial error.
func DialRetry(addr string, stats *Stats, opts Options, rp RetryPolicy, cancel <-chan struct{}) (*Conn, error) {
	if stats == nil {
		stats = &Stats{}
	}
	rp = rp.withDefaults()
	delay := rp.BaseDelay
	var lastErr error
	for i := 0; i < rp.Attempts; i++ {
		if i > 0 {
			d := delay + time.Duration(rand.Float64()*retryJitter*float64(delay))
			select {
			case <-time.After(d):
			case <-cancel:
				return nil, fmt.Errorf("network: dial %s canceled: %w", addr, lastErr)
			}
			delay *= 2
			if delay > rp.MaxDelay {
				delay = rp.MaxDelay
			}
			stats.Retries.Inc()
		}
		c, err := DialOpts(addr, stats, opts)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Stats returns the connection's transport counters.
func (c *Conn) Stats() *Stats { return c.stats }

// Done is closed when the connection has failed (error or Close); Err
// then reports the cause.
func (c *Conn) Done() <-chan struct{} { return c.done }

// Err returns the error that failed the connection, or nil while it is
// healthy. The first failure wins; later errors are discarded.
func (c *Conn) Err() error {
	select {
	case <-c.done:
	default:
		return nil
	}
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// fail transitions the connection to failed exactly once: it records
// the cause, closes Done, and tears down the socket (waking the Recv
// loop and any sender blocked in a write).
func (c *Conn) fail(err error) {
	c.failOnce.Do(func() {
		c.errMu.Lock()
		c.err = err
		c.errMu.Unlock()
		close(c.done)
		c.c.Close()
		c.stats.Severed.Inc()
	})
}

// Close tears down the connection. Senders blocked in Send return
// ErrClosed instead of hanging.
func (c *Conn) Close() error {
	c.fail(ErrClosed)
	return nil
}

// Send transmits one message of the given application type as one
// frame. It blocks while the peer's receive window is full, until the
// write deadline expires or the connection fails.
func (c *Conn) Send(msgType uint8, payload []byte) error {
	if err := c.Err(); err != nil {
		return err
	}
	if uint64(len(payload)) > math.MaxUint32 {
		return fmt.Errorf("network: %d-byte message exceeds the frame length field", len(payload))
	}
	switch c.faultAction(FaultSend, msgType, len(payload)) {
	case FaultDrop:
		return nil // simulated lost message
	case FaultSever:
		c.fail(errInjectedSever)
		return c.Err()
	}
	c.wm.Lock()
	err := c.writeFlushLocked(msgType, payload)
	c.wm.Unlock()
	if err != nil {
		c.fail(err)
		return c.Err()
	}
	c.stats.Msgs.Inc()
	c.stats.BytesSent.Add(uint64(len(payload)))
	return nil
}

// writeFlushLocked writes one frame and flushes, applying the write
// deadline. Caller holds wm.
func (c *Conn) writeFlushLocked(msgType uint8, payload []byte) error {
	if c.opts.SendTimeout > 0 {
		c.c.SetWriteDeadline(time.Now().Add(c.opts.SendTimeout))
		defer c.c.SetWriteDeadline(time.Time{})
	}
	var hdr [5]byte
	hdr[0] = msgType
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := c.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(payload); err != nil {
		return err
	}
	return c.w.Flush()
}

// Recv returns the next application message. The returned payload is
// drawn from the receive-buffer pool; call release when done with it to
// recycle the buffer (releasing is optional but keeps the pool
// effective). When Recv returns an error the connection has failed:
// Done is closed and blocked senders have been woken.
func (c *Conn) Recv() (msgType uint8, payload []byte, release func(), err error) {
	for {
		var hdr [5]byte
		if _, err = io.ReadFull(c.r, hdr[:]); err != nil {
			c.fail(err)
			return 0, nil, nil, c.Err()
		}
		mt, n := hdr[0], int(binary.LittleEndian.Uint32(hdr[1:]))
		var buf []byte
		if buf, err = c.readPayload(n); err != nil {
			c.fail(err)
			return 0, nil, nil, c.Err()
		}
		switch c.faultAction(FaultRecv, mt, n) {
		case FaultDrop:
			c.pool.put(buf)
			continue
		case FaultSever:
			c.fail(errInjectedSever)
			return 0, nil, nil, c.Err()
		}
		c.stats.BytesReceived.Add(uint64(n))
		return mt, buf, func() { c.pool.put(buf) }, nil
	}
}

// readPayload reads an n-byte payload. It reuses a pooled buffer when
// one is large enough; otherwise it starts at ioBufSize at most and
// doubles as the bytes arrive, so a length field claiming gigabytes
// costs memory only for what the peer actually sent.
func (c *Conn) readPayload(n int) ([]byte, error) {
	buf := c.pool.get(n)
	if buf == nil {
		c.stats.BuffersAlloced.Inc()
		buf = make([]byte, min(n, ioBufSize))
	}
	for got := 0; ; {
		m, err := io.ReadFull(c.r, buf[got:])
		if got += m; err != nil {
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-got, got))...)
	}
}

// Listener accepts BatchDB connections.
type Listener struct {
	l     net.Listener
	stats *Stats
}

// Listen binds a TCP listener; accepted connections carry no deadline.
func Listen(addr string, stats *Stats) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: listen %s: %w", addr, err)
	}
	if stats == nil {
		stats = &Stats{}
	}
	return &Listener{l: l, stats: stats}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for the next connection.
func (l *Listener) Accept() (*Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewConnOpts(c, l.stats, Options{}), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }

// bufferPool recycles receive buffers, mirroring the paper's
// pre-allocated and cached RDMA buffer pool.
type bufferPool struct {
	mu    sync.Mutex
	bufs  [][]byte
	stats *Stats
}

func newBufferPool(stats *Stats) *bufferPool {
	return &bufferPool{stats: stats}
}

// get returns a pooled buffer cut to exactly n bytes, or nil when none
// is large enough.
func (p *bufferPool) get(n int) []byte {
	p.mu.Lock()
	for i := len(p.bufs) - 1; i >= 0; i-- {
		if cap(p.bufs[i]) >= n {
			b := p.bufs[i]
			p.bufs = append(p.bufs[:i], p.bufs[i+1:]...)
			p.mu.Unlock()
			p.stats.BuffersReused.Inc()
			return b[:n]
		}
	}
	p.mu.Unlock()
	return nil
}

// put returns a buffer to the pool.
func (p *bufferPool) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.bufs) < 64 {
		p.bufs = append(p.bufs, b[:0])
	}
	p.mu.Unlock()
}
