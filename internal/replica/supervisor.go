package replica

import (
	"errors"
	"sync"
	"time"

	"batchdb/internal/network"
	"batchdb/internal/obs"
	"batchdb/internal/olap"
)

// Stats counts replication-channel robustness events for one replica
// node. Dial-level retries are counted in the supervisor's
// network.Stats (Retries).
type Stats struct {
	// Reconnects counts connections re-established after a loss.
	Reconnects obs.Counter
	// Resyncs counts snapshot resyncs staged after a reconnect.
	Resyncs obs.Counter
	// Degraded accumulates time spent without a live connection to the
	// primary (queries keep serving stale-but-consistent data).
	Degraded obs.BusyTracker
}

// SupervisorConfig parameterizes a Supervisor: the one declaration of
// a replica node's link to the primary. NewSupervisor fills every zero
// field with its default.
type SupervisorConfig struct {
	// Retry governs each dial round (attempts, backoff). The zero value
	// is replaced with 5 attempts from 25ms base delay.
	Retry network.RetryPolicy
	// ReconnectPause is the pause between failed reconnect rounds
	// (default 100ms). Reconnect rounds repeat until Close.
	ReconnectPause time.Duration
}

// linkTimeout is every link's send deadline, so a wedged primary
// surfaces as a connection failure (and a reconnect) instead of a
// silent hang.
const linkTimeout = 10 * time.Second

// Status is a point-in-time view of the replication channel.
type Status struct {
	// Connected reports a live, bootstrapped connection to the primary.
	Connected bool
	// BootstrapVID is the first successful bootstrap's snapshot VID.
	BootstrapVID uint64
	// Reconnects and Resyncs mirror Stats.
	Reconnects uint64
	Resyncs    uint64
	// Degraded is the cumulative time without a live connection,
	// including the current outage if disconnected now.
	Degraded time.Duration
	// CurrentOutage is the duration of the outage in progress (zero when
	// connected) — the health signal a fleet router ejects on.
	CurrentOutage time.Duration
	// LastError is the most recent connection or bootstrap error.
	LastError error
}

// Supervisor keeps one replica node's connection to the primary alive:
// it dials with retry and backoff, runs a Client over each connection,
// and on connection loss reconnects and resyncs from a fresh snapshot
// (staged, then installed atomically at the next quiesced apply round
// with the VID floor raised — no update lost, none double-applied).
// While disconnected the node is explicitly degraded: SyncUpdates falls
// back to the highest covered VID so queries keep serving stale but
// consistent data, and Status/Stats report the outage.
//
// Supervisor implements olap.Primary, so it plugs directly into the
// OLAP scheduler.
type Supervisor struct {
	addr     string
	rep      *olap.Replica
	cfg      SupervisorConfig
	netStats *network.Stats
	stats    *Stats

	mu            sync.Mutex
	cur           *Client
	curConn       *network.Conn
	degradedSince time.Time
	bootVID       uint64
	lastErr       error

	firstBoot chan struct{}
	bootOnce  sync.Once
	firstErr  error

	closing   chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
}

// NewSupervisor creates a supervisor for the replica node at addr. Call
// Start, then WaitBootstrap.
func NewSupervisor(addr string, rep *olap.Replica, cfg SupervisorConfig) *Supervisor {
	if cfg.Retry.Attempts < 1 {
		cfg.Retry.Attempts = 5
	}
	if cfg.ReconnectPause <= 0 {
		cfg.ReconnectPause = 100 * time.Millisecond
	}
	return &Supervisor{
		addr:      addr,
		rep:       rep,
		cfg:       cfg,
		netStats:  &network.Stats{},
		stats:     &Stats{},
		firstBoot: make(chan struct{}),
		closing:   make(chan struct{}),
		closed:    make(chan struct{}),
	}
}

// Start launches the supervision loop.
func (s *Supervisor) Start() { go s.run() }

// WaitBootstrap blocks until the first bootstrap completes and returns
// its snapshot VID. The first connection is strict: if it cannot be
// established or bootstrapped, the error is returned and the supervisor
// stops (reconnection persistence applies only after a first success).
func (s *Supervisor) WaitBootstrap() (uint64, error) {
	<-s.firstBoot
	if s.firstErr != nil {
		return 0, s.firstErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bootVID, nil
}

// SyncUpdates implements olap.Primary. While degraded it falls back to
// the highest covered VID so the OLAP dispatcher keeps serving.
func (s *Supervisor) SyncUpdates() uint64 {
	s.mu.Lock()
	cli := s.cur
	s.mu.Unlock()
	if cli == nil {
		return s.rep.Covered()
	}
	return cli.SyncUpdates() // falls back itself if the conn dies mid-sync
}

// FreshSync implements olap.FreshnessConfirmer: it reports whether the
// most recent SyncUpdates answer came from a live exchange with the
// primary (false while degraded, when SyncUpdates falls back to the
// replica's own covered VID).
func (s *Supervisor) FreshSync() bool {
	s.mu.Lock()
	cli := s.cur
	s.mu.Unlock()
	return cli != nil && cli.FreshSync()
}

// Status reports the channel's current health.
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Connected:    s.cur != nil,
		BootstrapVID: s.bootVID,
		Reconnects:   s.stats.Reconnects.Load(),
		Resyncs:      s.stats.Resyncs.Load(),
		Degraded:     s.stats.Degraded.Busy(),
		LastError:    s.lastErr,
	}
	if !s.degradedSince.IsZero() {
		st.CurrentOutage = time.Since(s.degradedSince)
		st.Degraded += st.CurrentOutage
	}
	return st
}

// NetStats returns the transport counters accumulated across every
// connection this supervisor established.
func (s *Supervisor) NetStats() *network.Stats { return s.netStats }

// KillConnection severs the current connection (no-op when already
// disconnected) — a fault hook for tests and operational drills. The
// supervisor reconnects and resyncs.
func (s *Supervisor) KillConnection() {
	s.mu.Lock()
	conn := s.curConn
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// InjectFault installs a fault policy on the current connection only
// (no-op when disconnected).
func (s *Supervisor) InjectFault(p network.FaultPolicy) {
	s.mu.Lock()
	conn := s.curConn
	s.mu.Unlock()
	if conn != nil {
		conn.SetFaultPolicy(p)
	}
}

// Close stops the supervision loop and severs any live connection.
func (s *Supervisor) Close() {
	s.closeOnce.Do(func() { close(s.closing) })
	s.mu.Lock()
	conn := s.curConn
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	<-s.closed
}

func (s *Supervisor) noteError(err error) {
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
}

// ErrSupervisorClosed reports a Close that arrived before the first
// bootstrap completed.
var ErrSupervisorClosed = errors.New("replica: supervisor closed before bootstrap")

func (s *Supervisor) run() {
	defer close(s.closed)
	// Whatever path exits the loop, never leave WaitBootstrap callers
	// hanging: if the first bootstrap neither succeeded nor recorded its
	// own error (e.g. Close raced the dial), fail it explicitly.
	defer s.bootOnce.Do(func() {
		if s.firstErr == nil {
			s.firstErr = ErrSupervisorClosed
		}
		close(s.firstBoot)
	})
	first := true
	for {
		select {
		case <-s.closing:
			return
		default:
		}
		conn, err := network.DialRetry(s.addr, s.netStats, network.Options{SendTimeout: linkTimeout}, s.cfg.Retry, s.closing)
		if err != nil {
			s.noteError(err)
			if first {
				s.firstErr = err
				s.bootOnce.Do(func() { close(s.firstBoot) })
				return
			}
			select {
			case <-s.closing:
				return
			case <-time.After(s.cfg.ReconnectPause):
			}
			continue
		}
		// Record the connection before (re)bootstrapping so Close and
		// KillConnection can sever it while the snapshot is still in
		// flight — a primary that wedges mid-ship must not make Close
		// block forever, and the kill drill must work during a resync.
		// s.cur stays nil until the bootstrap succeeds (Status reports
		// Connected only for a live, bootstrapped channel).
		s.mu.Lock()
		s.curConn = conn
		s.mu.Unlock()
		select {
		case <-s.closing:
			// Close ran before it could see curConn; sever here.
			conn.Close()
			s.mu.Lock()
			s.curConn = nil
			s.mu.Unlock()
			return
		default:
		}
		var cli *Client
		if first {
			cli = NewClient(conn, s.rep)
		} else {
			cli = NewResyncClient(conn, s.rep)
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- cli.Serve() }()
		bootVID, berr := cli.WaitBootstrap()
		if berr != nil {
			conn.Close()
			<-serveDone
			s.mu.Lock()
			s.curConn = nil
			s.mu.Unlock()
			s.noteError(berr)
			if first {
				s.firstErr = berr
				s.bootOnce.Do(func() { close(s.firstBoot) })
				return
			}
			select {
			case <-s.closing:
				return
			case <-time.After(s.cfg.ReconnectPause):
			}
			continue
		}
		s.mu.Lock()
		s.cur, s.curConn = cli, conn
		if !s.degradedSince.IsZero() {
			s.stats.Degraded.Track(time.Since(s.degradedSince))
			s.degradedSince = time.Time{}
		}
		if first {
			s.bootVID = bootVID
		} else {
			s.stats.Reconnects.Inc()
			s.stats.Resyncs.Inc()
		}
		s.mu.Unlock()
		if first {
			s.bootOnce.Do(func() { close(s.firstBoot) })
			first = false
		}
		select {
		case err := <-serveDone:
			s.noteError(err)
			s.mu.Lock()
			s.cur, s.curConn = nil, nil
			s.degradedSince = time.Now()
			s.mu.Unlock()
			conn.Close()
		case <-s.closing:
			s.mu.Lock()
			s.cur, s.curConn = nil, nil
			s.mu.Unlock()
			conn.Close()
			<-serveDone
			return
		}
	}
}
