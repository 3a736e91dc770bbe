package replica

import (
	"sync"

	"batchdb/internal/network"
	"batchdb/internal/obs"
	"batchdb/internal/oltp"
	"batchdb/internal/storage"
)

// bootChunkRows is the bootstrap snapshot's chunk size: large enough
// that a chunk's per-message costs (a frame header, a receive buffer,
// one decode call) are spread over many rows, small enough that a chunk
// never holds a whole table.
const bootChunkRows = 4096

// ServerStats counts a primary's replica-serving activity.
type ServerStats struct {
	// Active is the number of currently connected replica nodes.
	Active obs.Gauge
	// Served counts replica connections accepted since Serve.
	Served obs.Counter
	// Disconnects counts replica connections that ended (including
	// replicas severed for lagging behind the publisher queue).
	Disconnects obs.Counter
}

// Server is the primary's side of replication: it accepts remote
// replica nodes and feeds each one (paper §6 — one primary feeds any
// number of secondaries).
type Server struct {
	ln     *network.Listener
	engine *oltp.Engine
	tables []storage.TableID
	stats  ServerStats

	// mu guards pubs, the live connections and their publishers, so
	// Close can sever them; closed marks the map drained, and a
	// connection the accept loop races in after that is severed instead
	// of registered.
	mu     sync.Mutex
	pubs   map[*network.Conn]*Publisher
	closed bool
}

// Serve accepts replica connections on ln until Close. Each connection
// is registered, gets a Publisher attached to engine as an update sink,
// and is then shipped a bootstrap snapshot of tables; the feed is
// attached before the snapshot is taken, so the replica's VID floor
// covers the gap (no loss, no double apply). When a connection ends
// (replica death, lag sever, network fault) its Publisher is detached,
// so the dispatcher stops encoding pushes for it; the replica is
// expected to reconnect and resync (see Supervisor).
func Serve(ln *network.Listener, engine *oltp.Engine, tables []storage.TableID) *Server {
	s := &Server{ln: ln, engine: engine, tables: tables, pubs: make(map[*network.Conn]*Publisher)}
	go s.acceptLoop()
	return s
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		pub := NewPublisher(conn, s.engine)
		s.pubs[conn] = pub
		s.mu.Unlock()
		s.engine.AddSink(pub)
		s.stats.Active.Add(1)
		s.stats.Served.Inc()
		go func() {
			pub.Serve()
			s.engine.RemoveSink(pub)
			s.mu.Lock()
			delete(s.pubs, conn)
			s.mu.Unlock()
			s.stats.Active.Add(-1)
			s.stats.Disconnects.Inc()
		}()
		go func() {
			if _, err := ShipSnapshot(conn, s.engine.Store(), s.tables, bootChunkRows); err != nil {
				conn.Close()
			}
		}()
	}
}

// Addr returns the address replicas dial.
func (s *Server) Addr() string { return s.ln.Addr() }

// Stats returns the replica-serving counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// RegisterMetrics exposes the replica-serving counters and the
// publishers' combined send-queue depth through reg.
func (s *Server) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.ObserveGauge("batchdb_replica_server_active",
		"Currently connected replica nodes.", &s.stats.Active, labels...)
	reg.ObserveCounter("batchdb_replica_server_served_total",
		"Replica connections accepted since the primary began serving replicas.", &s.stats.Served, labels...)
	reg.ObserveCounter("batchdb_replica_server_disconnects_total",
		"Replica connections that ended.", &s.stats.Disconnects, labels...)
	reg.GaugeFunc("batchdb_replica_send_queue_depth",
		"Frames queued across all replica publishers (propagation backpressure).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, pub := range s.pubs {
				n += pub.QueueDepth()
			}
			return float64(n)
		}, labels...)
}

// Close stops accepting and severs every live replica connection, so
// the replicas observe the primary's departure (degraded mode and
// reconnect attempts) instead of syncing against a stopped engine. A
// connection that races in after Close is severed too.
func (s *Server) Close() {
	s.ln.Close()
	s.mu.Lock()
	s.closed = true
	for conn := range s.pubs {
		conn.Close()
	}
	s.mu.Unlock()
}
