// Package network is BatchDB's transport for shipping updates between
// machines (paper §6).
//
// The paper uses RDMA over 4xFDR InfiniBand; this machine has neither,
// so the package substitutes a TCP transport that mirrors the paper's
// protocol structure rather than its latency constants:
//
//   - Small messages travel on the eager path: they are written
//     directly, and the receiver lands them in pre-registered receive
//     buffers drawn from a pool (the analogue of two-sided RDMA into
//     registered buffers).
//   - Messages larger than EagerLimit use a rendezvous handshake: the
//     sender first transmits the required size, the receiver allocates
//     and "registers" a buffer from its large-buffer pool and replies
//     with a grant, and only then does the bulk transfer proceed (the
//     analogue of the paper's handshake + one-sided RDMA write). To
//     reduce allocation and registration cost, large buffers are pooled
//     and reused — exactly the paper's buffer-pool motivation.
//
// The paper assumes the replication channel is always available; a TCP
// substitute cannot, so the transport treats failure as a first-class
// state. A connection that errors (peer death, deadline, injected
// fault, Close) transitions to failed exactly once: the first error is
// recorded, Done() is closed, and every sender blocked in a rendezvous
// handshake is woken with that error instead of hanging. Rendezvous
// grants are correlated with their senders through a FIFO waiter queue
// (grants arrive in the order the rendezvous announcements were
// written, because the stream is ordered), so concurrent large sends
// never steal or drop each other's grants. Optional per-frame write
// deadlines and a grant deadline bound how long a send can stall on a
// sick peer, and DialRetry adds exponential backoff with jitter for
// connection establishment. A FaultPolicy hook injects deterministic
// drop/delay/sever faults at frame granularity so every failure mode is
// testable without real network flakiness.
//
// The code path that matters to BatchDB — serialize update batches,
// ship them, hand them to the remote replica — is identical in shape;
// only the wire is slower. Statistics expose which path each message
// took so benchmarks can report protocol behaviour.
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

// EagerLimit is the largest payload sent without a rendezvous handshake.
// The paper uses 1024 KB receive buffers; we keep the same value.
const EagerLimit = 1 << 20

// Frame kinds on the wire. Exported so FaultPolicy implementations can
// target specific protocol steps (e.g. drop grants to exercise the
// sender's grant deadline).
const (
	FrameEager      = 0x01
	FrameRendezvous = 0x02 // header only: announces a large transfer
	FrameGrant      = 0x03 // receiver's go-ahead
	FrameBulk       = 0x04 // the large payload itself
)

// Stats counts transport events.
type Stats struct {
	EagerMsgs      obs.Counter
	RendezvousMsgs obs.Counter
	BytesSent      obs.Counter
	BytesReceived  obs.Counter
	BuffersReused  obs.Counter
	BuffersAlloced obs.Counter
	// Retries counts dial attempts beyond each first try (DialRetry).
	Retries obs.Counter
	// DroppedGrants counts grants that arrived with no waiting sender —
	// zero in a healthy connection; non-zero indicates a protocol bug or
	// an injected fault.
	DroppedGrants obs.Counter
	// GrantTimeouts counts rendezvous handshakes abandoned because the
	// grant deadline expired.
	GrantTimeouts obs.Counter
	// Severed counts connections that transitioned to failed (error,
	// deadline, injected fault, or Close).
	Severed obs.Counter
}

// Options bounds how long a connection may stall on a sick peer. The
// zero value disables all deadlines (trusted-loopback behaviour).
type Options struct {
	// SendTimeout is the write deadline applied to each frame write
	// (including its flush). Zero means no deadline.
	SendTimeout time.Duration
	// GrantTimeout bounds how long a rendezvous sender waits for the
	// receiver's grant. Zero means wait until the connection fails.
	GrantTimeout time.Duration
}

// ErrClosed reports use of a connection after Close.
var ErrClosed = errors.New("network: connection closed")

// errMalformed wraps every frame Recv refuses: a length the protocol
// could not have written, checked before a byte of it is allocated.
var errMalformed = errors.New("network: malformed frame")

// Conn is a message-oriented connection. Send may be called from
// multiple goroutines; Recv must be called from a single reader
// goroutine (the usual demultiplexer pattern).
type Conn struct {
	c    net.Conn
	r    *bufio.Reader
	wm   sync.Mutex
	w    *bufio.Writer
	opts Options

	// waiters is the FIFO of senders awaiting rendezvous grants, in the
	// order their announcements hit the wire: the stream is ordered, so
	// the k-th grant received answers the k-th announcement written.
	gm      sync.Mutex
	waiters []chan struct{}
	// lastBulk is closed once the latest announced transfer's bulk frame
	// is written or abandoned; the next one waits for it, so bulk frames
	// leave in announcement order. Guarded by wm.
	lastBulk chan struct{}

	// announced is the receive side's FIFO of rendezvous sizes still
	// awaiting their bulk frame, oldest first. Only Recv touches it.
	announced []uint32

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
		r:     bufio.NewReaderSize(c, 1<<20),
		w:     bufio.NewWriterSize(c, 1<<20),
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
// the cause, closes Done (waking senders blocked in rendezvous waits),
// and tears down the socket (waking the Recv loop).
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

// Send transmits one message of the given application type. Payloads at
// or below EagerLimit go out immediately; larger ones run the rendezvous
// handshake and block until the receiver grants a buffer, the grant
// deadline expires, or the connection fails.
func (c *Conn) Send(msgType uint8, payload []byte) error {
	if err := c.Err(); err != nil {
		return err
	}
	if len(payload) <= EagerLimit {
		switch c.faultAction(FaultSend, FrameEager, msgType, len(payload)) {
		case FaultDrop:
			return nil // simulated lost message
		case FaultSever:
			c.fail(errInjectedSever)
			return c.Err()
		}
		if err := c.sendLocked(FrameEager, msgType, payload); err != nil {
			return err
		}
		c.stats.EagerMsgs.Inc()
		c.stats.BytesSent.Add(uint64(len(payload)))
		return nil
	}

	// Rendezvous: announce size, wait for the grant, then bulk-send. The
	// waiter is enqueued while the write lock is held so queue order
	// matches the wire order of announcements — that is what correlates
	// the k-th incoming grant with the k-th waiting sender. The receiver
	// matches each bulk frame against its oldest announcement, so a bulk
	// frame also waits for the one announced before it.
	switch c.faultAction(FaultSend, FrameRendezvous, msgType, len(payload)) {
	case FaultSever:
		c.fail(errInjectedSever)
		return c.Err()
	case FaultDrop:
		// Simulate a lost announcement: the sender still waits (and times
		// out) as it would on a real loss, but nothing hits the wire.
		return c.waitGrant(make(chan struct{}, 1))
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(payload)))
	waiter, turn := make(chan struct{}, 1), make(chan struct{})
	defer close(turn)
	c.wm.Lock()
	c.gm.Lock()
	c.waiters = append(c.waiters, waiter)
	c.gm.Unlock()
	prev := c.lastBulk
	c.lastBulk = turn
	err := c.writeFlushLocked(FrameRendezvous, msgType, hdr[:])
	c.wm.Unlock()
	if err != nil {
		c.fail(err)
		return c.Err()
	}
	if err := c.waitGrant(waiter); err != nil {
		return err
	}
	if prev != nil {
		select {
		case <-prev:
		case <-c.done:
			return c.Err()
		}
	}
	switch c.faultAction(FaultSend, FrameBulk, msgType, len(payload)) {
	case FaultDrop:
		return nil
	case FaultSever:
		c.fail(errInjectedSever)
		return c.Err()
	}
	if err := c.sendLocked(FrameBulk, msgType, payload); err != nil {
		return err
	}
	c.stats.RendezvousMsgs.Inc()
	c.stats.BytesSent.Add(uint64(len(payload)))
	return nil
}

// waitGrant blocks until the receiver's grant arrives, the grant
// deadline expires, or the connection fails. On the no-grant exits the
// sender's waiter is removed from the queue, keeping the FIFO invariant
// (queue position k == k-th outstanding announcement) self-contained
// rather than relying on the connection being failed right after.
func (c *Conn) waitGrant(waiter chan struct{}) error {
	var timeoutCh <-chan time.Time
	if c.opts.GrantTimeout > 0 {
		t := time.NewTimer(c.opts.GrantTimeout)
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case <-waiter:
		return nil
	case <-c.done:
		c.removeWaiter(waiter)
		return fmt.Errorf("network: connection failed awaiting rendezvous grant: %w", c.Err())
	case <-timeoutCh:
		c.stats.GrantTimeouts.Inc()
		c.removeWaiter(waiter)
		// The protocol state is undefined now (the receiver may still
		// send the grant later), so the connection cannot be reused.
		c.fail(fmt.Errorf("network: rendezvous grant timeout after %v", c.opts.GrantTimeout))
		return c.Err()
	}
}

// removeWaiter takes one sender's waiter out of the grant queue (no-op
// when a concurrent grant already popped it, or when the waiter was
// never enqueued — the simulated-loss path).
func (c *Conn) removeWaiter(waiter chan struct{}) {
	c.gm.Lock()
	for i, w := range c.waiters {
		if w == waiter {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	c.gm.Unlock()
}

// sendLocked writes and flushes one frame under the write lock, failing
// the connection on error.
func (c *Conn) sendLocked(kind, msgType uint8, payload []byte) error {
	c.wm.Lock()
	err := c.writeFlushLocked(kind, msgType, payload)
	c.wm.Unlock()
	if err != nil {
		c.fail(err)
		return c.Err()
	}
	return nil
}

// writeFlushLocked writes one frame and flushes, applying the write
// deadline. Caller holds wm.
func (c *Conn) writeFlushLocked(kind, msgType uint8, payload []byte) error {
	if c.opts.SendTimeout > 0 {
		c.c.SetWriteDeadline(time.Now().Add(c.opts.SendTimeout))
		defer c.c.SetWriteDeadline(time.Time{})
	}
	if err := c.writeFrame(kind, msgType, payload); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *Conn) writeFrame(kind, msgType uint8, payload []byte) error {
	var hdr [6]byte
	hdr[0] = kind
	hdr[1] = msgType
	binary.LittleEndian.PutUint32(hdr[2:], uint32(len(payload)))
	if _, err := c.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := c.w.Write(payload)
	return err
}

// Recv returns the next application message. The returned payload is
// drawn from the receive-buffer pool; call release when done with it to
// recycle the buffer (releasing is optional but keeps the pool
// effective). Recv transparently services rendezvous handshakes. When
// Recv returns an error the connection has failed: Done is closed and
// blocked senders have been woken. A frame whose length the protocol
// could not have written fails the connection before anything is
// allocated for it: an eager frame above EagerLimit, a rendezvous header
// that is not 8 bytes or announces a size outside (EagerLimit,
// MaxUint32], a bulk frame that is not the size of the oldest
// outstanding announcement, and a grant that carries a payload.
func (c *Conn) Recv() (msgType uint8, payload []byte, release func(), err error) {
	for {
		var hdr [6]byte
		if _, err = io.ReadFull(c.r, hdr[:]); err != nil {
			c.fail(err)
			return 0, nil, nil, c.Err()
		}
		kind, mt := hdr[0], hdr[1]
		n := int(binary.LittleEndian.Uint32(hdr[2:]))
		switch kind {
		case FrameEager, FrameBulk:
			if err = c.checkLen(kind, n); err != nil {
				c.fail(err)
				return 0, nil, nil, c.Err()
			}
			buf := c.pool.get(n)
			if _, err = io.ReadFull(c.r, buf); err != nil {
				c.fail(err)
				return 0, nil, nil, c.Err()
			}
			switch c.faultAction(FaultRecv, kind, mt, n) {
			case FaultDrop:
				c.pool.put(buf)
				continue
			case FaultSever:
				c.fail(errInjectedSever)
				return 0, nil, nil, c.Err()
			}
			c.stats.BytesReceived.Add(uint64(n))
			return mt, buf, func() { c.pool.put(buf) }, nil
		case FrameRendezvous:
			// Pre-register a large buffer, then grant. The bulk frame
			// follows on the same ordered stream.
			var szb [8]byte
			if n != len(szb) {
				c.fail(fmt.Errorf("%w: rendezvous header of %d bytes, want %d", errMalformed, n, len(szb)))
				return 0, nil, nil, c.Err()
			}
			if _, err = io.ReadFull(c.r, szb[:]); err != nil {
				c.fail(err)
				return 0, nil, nil, c.Err()
			}
			// A bulk frame's length field is a uint32, so a larger
			// announcement could never be honoured.
			sz64 := binary.LittleEndian.Uint64(szb[:])
			if sz64 <= EagerLimit || sz64 > math.MaxUint32 {
				c.fail(fmt.Errorf("%w: rendezvous announces %d bytes, outside (%d, %d]", errMalformed, sz64, EagerLimit, uint64(math.MaxUint32)))
				return 0, nil, nil, c.Err()
			}
			sz := uint32(sz64)
			switch c.faultAction(FaultRecv, FrameRendezvous, mt, int(sz)) {
			case FaultDrop:
				continue // never grant: the sender observes a loss
			case FaultSever:
				c.fail(errInjectedSever)
				return 0, nil, nil, c.Err()
			}
			c.announced = append(c.announced, sz)
			c.pool.reserve(int(sz))
			if err := c.sendLocked(FrameGrant, 0, nil); err != nil {
				return 0, nil, nil, err
			}
		case FrameGrant:
			if n != 0 {
				c.fail(fmt.Errorf("%w: grant carries %d bytes", errMalformed, n))
				return 0, nil, nil, c.Err()
			}
			switch c.faultAction(FaultRecv, FrameGrant, mt, n) {
			case FaultDrop:
				continue
			case FaultSever:
				c.fail(errInjectedSever)
				return 0, nil, nil, c.Err()
			}
			var wtr chan struct{}
			c.gm.Lock()
			if len(c.waiters) > 0 {
				wtr = c.waiters[0]
				c.waiters = c.waiters[1:]
			}
			c.gm.Unlock()
			if wtr != nil {
				wtr <- struct{}{} // cap 1: never blocks
			} else {
				c.stats.DroppedGrants.Inc()
			}
		default:
			err = fmt.Errorf("network: unknown frame kind 0x%02x", kind)
			c.fail(err)
			return 0, nil, nil, c.Err()
		}
	}
}

// checkLen vets a payload frame's length before its buffer is drawn: an
// eager frame fits EagerLimit, and a bulk frame answers the oldest
// outstanding announcement with exactly the size it announced.
func (c *Conn) checkLen(kind uint8, n int) error {
	if kind == FrameEager {
		if n > EagerLimit {
			return fmt.Errorf("%w: eager frame of %d bytes, limit %d", errMalformed, n, EagerLimit)
		}
		return nil
	}
	if len(c.announced) == 0 {
		return fmt.Errorf("%w: bulk frame of %d bytes with no rendezvous outstanding", errMalformed, n)
	}
	want := c.announced[0]
	c.announced = c.announced[1:]
	if n != int(want) {
		return fmt.Errorf("%w: bulk frame of %d bytes, rendezvous announced %d", errMalformed, n, want)
	}
	return nil
}

// Listener accepts BatchDB connections.
type Listener struct {
	l     net.Listener
	stats *Stats
	opts  Options
}

// Listen binds a TCP listener with no deadlines on accepted conns.
func Listen(addr string, stats *Stats) (*Listener, error) {
	return ListenOpts(addr, stats, Options{})
}

// ListenOpts binds a TCP listener; accepted connections carry opts.
func ListenOpts(addr string, stats *Stats, opts Options) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: listen %s: %w", addr, err)
	}
	if stats == nil {
		stats = &Stats{}
	}
	return &Listener{l: l, stats: stats, opts: opts}, nil
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
	return NewConnOpts(c, l.stats, l.opts), nil
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

// get returns a buffer of exactly n bytes, reusing pooled storage when
// large enough.
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
	p.stats.BuffersAlloced.Inc()
	return make([]byte, n)
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

// reserve pre-registers capacity for an announced large transfer.
func (p *bufferPool) reserve(n int) {
	p.mu.Lock()
	for _, b := range p.bufs {
		if cap(b) >= n {
			p.mu.Unlock()
			return
		}
	}
	p.bufs = append(p.bufs, make([]byte, 0, n))
	p.mu.Unlock()
	p.stats.BuffersAlloced.Inc()
}
