// Package replica implements BatchDB's cross-machine replication: the
// primary node ships its physical update log and bootstrap snapshots to
// remote OLAP replicas over the network transport (paper §6; the
// "Distributed (RDMA) Replicas" configuration of Fig. 7).
//
// Wire protocol, all multiplexed on one ordered connection:
//
//	replica -> primary: sync            (fetch latest snapshot version)
//	primary -> replica: updates         (pushed update batches + upTo)
//	primary -> replica: syncReply       (covered VID; ordered after the
//	                                     updates it covers)
//	primary -> replica: bootRows        (snapshot chunk during bootstrap:
//	                                     one table's (key, tuple) rows)
//	primary -> replica: bootDone        (snapshot VID)
//
// Because the connection delivers in order and the primary writes the
// updates before the matching syncReply, a replica that has read the
// syncReply is guaranteed to have enqueued every update the reply
// covers — the same reasoning the paper applies to its RDMA channel.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"batchdb/internal/mvcc"
	"batchdb/internal/network"
	"batchdb/internal/olap"
	"batchdb/internal/oltp"
	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

// Message types.
const (
	msgSync      = 1
	msgSyncReply = 2
	msgUpdates   = 3
	msgBootRows  = 4
	msgBootDone  = 5
)

// --- primary side ------------------------------------------------------

// DefaultPublisherQueue bounds the pushes a Publisher buffers for one
// replica. A replica that falls further behind (or is disconnected) is
// severed rather than silently skipped: dropping an update push would
// violate the coverage invariant (a sync reply promises every update it
// covers was delivered), so the only safe degradation is to cut the
// connection and let the replica reconnect and resync from a fresh
// snapshot.
const DefaultPublisherQueue = 256

// outMsg is one queued transmission (an update push or a sync reply).
// buf is drawn from the network package's frame-buffer pool; whoever
// finishes with the message (the send loop, or enqueue on overflow)
// returns it.
type outMsg struct {
	mt  uint8
	buf []byte
}

// Publisher runs on the primary node: it ships update pushes to one
// remote replica through a bounded send queue, and its Serve loop
// answers that replica's sync requests. The queue decouples the OLTP
// dispatcher from the replica's network: a slow or dead replica can
// never wedge transaction processing — it is severed when the queue
// overflows.
type Publisher struct {
	conn   *network.Conn
	engine *oltp.Engine
	out    chan outMsg
}

// NewPublisher wraps an established connection to a replica node and
// starts its send loop (which exits when the connection fails).
func NewPublisher(conn *network.Conn, engine *oltp.Engine) *Publisher {
	p := &Publisher{conn: conn, engine: engine, out: make(chan outMsg, DefaultPublisherQueue)}
	go p.sendLoop()
	return p
}

func (p *Publisher) sendLoop() {
	for {
		select {
		case m := <-p.out:
			err := p.conn.Send(m.mt, m.buf)
			// Send never retains the payload past its return, so the
			// frame buffer can be recycled even on failure.
			network.PutFrameBuf(m.buf)
			if err != nil {
				return
			}
		case <-p.conn.Done():
			return
		}
	}
}

// enqueue queues one message for the send loop. Overflow means the
// replica cannot keep up: the connection is severed so the replica
// reconnects and resyncs (see DefaultPublisherQueue).
func (p *Publisher) enqueue(mt uint8, buf []byte) {
	select {
	case p.out <- outMsg{mt: mt, buf: buf}:
	default:
		network.PutFrameBuf(buf)
		p.conn.Close()
	}
}

// ApplyUpdates implements oltp.UpdateSink by queueing the push for the
// send loop. It is called from the OLTP dispatcher at batch boundaries
// and never blocks: a dead replica must not wedge the primary.
func (p *Publisher) ApplyUpdates(batches []proplog.Batch, upTo uint64) {
	if p.conn.Err() != nil {
		return // dead feed; the serve loop is tearing down
	}
	buf := binary.LittleEndian.AppendUint64(network.GetFrameBuf(), upTo)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(batches)))
	for i := range batches {
		lenPos := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		buf = proplog.AppendEncode(buf, &batches[i])
		binary.LittleEndian.PutUint32(buf[lenPos:], uint32(len(buf)-lenPos-4))
	}
	p.enqueue(msgUpdates, buf)
}

// Serve answers sync requests until the connection closes. It answers
// each on its reader goroutine: engine.SyncUpdates pushes through
// ApplyUpdates, which never blocks, and returns once the engine closes,
// so the loop always comes back to Recv.
//
// Sync replies travel through the same FIFO queue as update pushes, so
// a reply is always ordered after the updates it covers — the coverage
// invariant the replica's sync round trip relies on.
func (p *Publisher) Serve() error {
	// Whatever ends this loop, fail the connection so the send loop and
	// any queued senders unwind too.
	defer p.conn.Close()
	for {
		mt, _, release, err := p.conn.Recv()
		if err != nil {
			return err
		}
		release()
		if mt != msgSync {
			return fmt.Errorf("replica: primary received unexpected message type %d", mt)
		}
		// SyncUpdates pushes through our ApplyUpdates (among the
		// engine's sinks) before returning, so enqueueing the reply here
		// orders it after the updates it covers.
		covered := p.engine.SyncUpdates()
		p.enqueue(msgSyncReply, binary.LittleEndian.AppendUint64(network.GetFrameBuf(), covered))
	}
}

// ShipSnapshot streams the current committed state of the given tables
// to the replica node in chunks of chunkRows rows, and finishes with the
// snapshot VID. Attach the Publisher to the engine's sink set *before*
// calling this: the replica discards any update the snapshot already
// contains (VID floor).
func ShipSnapshot(conn *network.Conn, store *mvcc.Store, tables []storage.TableID, chunkRows int) (uint64, error) {
	ro := store.BeginRO()
	defer ro.Release()
	snap := ro.Snapshot()
	for _, id := range tables {
		t := store.Table(id)
		if t == nil {
			return 0, fmt.Errorf("replica: snapshot of unknown table %d", id)
		}
		rows := proplog.NewRowChunker(id, chunkRows, func(chunk []byte) error {
			return conn.Send(msgBootRows, chunk)
		})
		t.Scan(ro, rows.Add)
		if err := rows.Flush(); err != nil {
			return 0, err
		}
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], snap)
	if err := conn.Send(msgBootDone, b[:]); err != nil {
		return 0, err
	}
	return snap, nil
}

// LoadLocal populates a co-located OLAP replica directly from the
// primary store's current committed state and sets the replica's floor
// to the snapshot VID (the local-machine bootstrap; remote replicas use
// ShipSnapshot instead). Attach the replica as an update sink before
// calling so no update between snapshot and first push is lost.
func LoadLocal(rep *olap.Replica, store *mvcc.Store, tables []storage.TableID) (uint64, error) {
	ro := store.BeginRO()
	defer ro.Release()
	snap := ro.Snapshot()
	for _, id := range tables {
		t := store.Table(id)
		if t == nil {
			return 0, fmt.Errorf("replica: local load of unknown table %d", id)
		}
		var err error
		t.Scan(ro, func(key uint64, tup []byte) bool {
			err = rep.LoadTuple(id, key, tup)
			return err == nil
		})
		if err != nil {
			return 0, err
		}
	}
	rep.SetFloor(snap)
	return snap, nil
}

// --- replica side -------------------------------------------------------

// Client runs on the replica node: it feeds received updates and
// bootstrap rows into the local olap.Replica and implements olap.Primary
// by forwarding sync requests to the primary node.
type Client struct {
	conn    *network.Conn
	replica *olap.Replica

	// staged, when non-nil, redirects bootstrap rows AND live update
	// pushes into a Reload that is installed atomically on bootDone
	// instead of touching the replica directly — the resync path for
	// reconnecting replicas whose old data is still serving queries.
	// Only the Serve goroutine touches it.
	staged *olap.Reload

	syncMu    sync.Mutex // serializes sync round trips
	syncReply chan uint64
	// syncLive records whether the most recent SyncUpdates round-tripped
	// to the primary (false when it fell back to the covered VID because
	// the connection died mid-sync). Feeds the freshness tracker.
	syncLive atomic.Bool

	bootDone chan uint64
	bootOnce sync.Once
	done     chan struct{}
	doneOnce sync.Once

	errMu sync.Mutex
	err   error
}

// NewClient wraps an established connection to the primary node.
// Bootstrap rows load directly into the replica, so the replica must
// not be serving queries yet (first connection).
func NewClient(conn *network.Conn, replica *olap.Replica) *Client {
	return &Client{
		conn:      conn,
		replica:   replica,
		syncReply: make(chan uint64, 1),
		bootDone:  make(chan uint64, 1),
		done:      make(chan struct{}),
	}
}

// NewResyncClient wraps a re-established connection to the primary
// node. Bootstrap rows — and any update pushes that arrive while the
// snapshot is in flight — are staged into an olap.Reload while queries
// keep running against the replica's old data; the completed snapshot
// is installed atomically (and the VID floor raised) by the next
// quiesced apply round, with the staged pushes queued right behind it.
func NewResyncClient(conn *network.Conn, replica *olap.Replica) *Client {
	c := NewClient(conn, replica)
	c.staged = replica.NewReload()
	return c
}

// Serve demultiplexes messages from the primary until the connection
// closes. Run it in its own goroutine.
func (c *Client) Serve() error {
	for {
		mt, payload, release, err := c.conn.Recv()
		if err != nil {
			c.errMu.Lock()
			c.err = err
			c.errMu.Unlock()
			c.bootOnce.Do(func() { close(c.bootDone) })
			c.doneOnce.Do(func() { close(c.done) })
			return err
		}
		switch mt {
		case msgUpdates:
			err = c.handleUpdates(payload)
		case msgSyncReply:
			if len(payload) >= 8 {
				c.syncReply <- binary.LittleEndian.Uint64(payload)
			}
		case msgBootRows:
			err = c.handleBootRows(payload)
		case msgBootDone:
			if len(payload) >= 8 {
				vid := binary.LittleEndian.Uint64(payload)
				if c.staged != nil {
					c.replica.InstallReload(c.staged, vid)
					// Later pushes belong to the live queue: the reload
					// (and the pushes buffered inside it) is already
					// queued ahead of them for the next apply round.
					c.staged = nil
				} else {
					c.replica.SetFloor(vid)
				}
				c.bootOnce.Do(func() { c.bootDone <- vid })
			}
		default:
			err = fmt.Errorf("replica: unexpected message type %d", mt)
		}
		if release != nil {
			release()
		}
		if err != nil {
			c.errMu.Lock()
			c.err = err
			c.errMu.Unlock()
			c.doneOnce.Do(func() { close(c.done) })
			return err
		}
	}
}

func (c *Client) handleUpdates(payload []byte) error {
	if len(payload) < 12 {
		return errors.New("replica: short updates message")
	}
	upTo := binary.LittleEndian.Uint64(payload)
	n := int(binary.LittleEndian.Uint32(payload[8:]))
	pos := 12
	if n > (len(payload)-pos)/4 {
		return errors.New("replica: truncated updates message")
	}
	batches := make([]proplog.Batch, 0, n)
	for i := 0; i < n; i++ {
		if len(payload)-pos < 4 {
			return errors.New("replica: truncated updates message")
		}
		bl := int(binary.LittleEndian.Uint32(payload[pos:]))
		pos += 4
		if len(payload)-pos < bl {
			return errors.New("replica: truncated batch")
		}
		// Decode copies what it keeps: the receive buffer is recycled
		// after this handler returns, while entries stay queued until
		// the next OLAP batch boundary.
		b, err := proplog.Decode(payload[pos : pos+bl])
		pos += bl
		if err != nil {
			return err
		}
		batches = append(batches, b)
	}
	if c.staged != nil {
		// Resync in flight: the replica's data predates the outage, so
		// these pushes must not reach its live pending queue (an apply
		// round would lay them over data missing the outage gap, and the
		// reload would then wipe them for good). Buffer them in the
		// staged Reload; InstallReload splices them into the queue
		// atomically with the snapshot.
		c.staged.ApplyUpdates(batches, upTo)
		return nil
	}
	c.replica.ApplyUpdates(batches, upTo)
	return nil
}

// handleBootRows loads one row chunk into the replica, or into the
// staged reload during a resync. Either copies the tuples, so they may
// alias the receive buffer.
func (c *Client) handleBootRows(payload []byte) error {
	load := c.replica.LoadTuple
	if c.staged != nil {
		load = c.staged.LoadTuple
	}
	return proplog.DecodeRowChunk(payload, load)
}

// WaitBootstrap blocks until the snapshot finished loading and returns
// its VID.
func (c *Client) WaitBootstrap() (uint64, error) {
	v, ok := <-c.bootDone
	if !ok {
		c.errMu.Lock()
		defer c.errMu.Unlock()
		return 0, fmt.Errorf("replica: connection failed during bootstrap: %v", c.err)
	}
	return v, nil
}

// SyncUpdates implements olap.Primary: it performs one sync round trip
// with the primary node. By the time the reply arrives, every update it
// covers has been enqueued (ordered channel).
func (c *Client) SyncUpdates() uint64 {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	if err := c.conn.Send(msgSync, nil); err != nil {
		c.syncLive.Store(false)
		return c.replica.Covered()
	}
	select {
	case v := <-c.syncReply:
		c.syncLive.Store(true)
		return v
	case <-c.done:
		// Connection lost: fall back to what we already hold so the
		// OLAP dispatcher keeps serving (stale but consistent data).
		c.syncLive.Store(false)
		return c.replica.Covered()
	}
}

// FreshSync reports whether the most recent SyncUpdates round-tripped
// to the primary.
func (c *Client) FreshSync() bool { return c.syncLive.Load() }
