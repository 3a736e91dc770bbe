package olap

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

// Table is one replicated relation: its schema and partitions, each row
// in the partition its primary key hashes to (partitionOf).
type Table struct {
	Schema     *storage.Schema
	Partitions []*Partition

	// capHint (per partition) is retained so a resync reload can rebuild
	// partitions with the original sizing.
	capHint int

	// zmBlock is the zone-map block size (slots per synopsis block);
	// 0 means zone maps are disabled. Retained so resync reloads rebuild
	// partitions with their synopses.
	zmBlock int

	// wantedSyn accumulates the synopsis columns queries have pushed
	// predicates on (a bitmask over the partitions' synopsis column
	// list). Written with atomic ORs from the executor's compile path —
	// which runs during query batches — and drained into actual
	// activation at the start of the next apply window. It survives
	// resync reloads, so rebuilt partitions re-activate the same
	// columns.
	wantedSyn atomic.Uint64

	// version counts data-changing events (loads and applied update
	// rounds). The shared-execution engine keeps what it derives from the
	// table's rows (link arrays) for as long as the version holds, so a
	// table that did not change (static dimensions like nation or item)
	// keeps them across batches.
	version uint64

	// scratch holds the table's reusable apply buffers (see applyScratch),
	// used only by the apply round's tasks.
	scratch applyScratch
}

// Version returns the table's data version; it changes whenever tuples
// are loaded or updates applied.
func (t *Table) Version() uint64 { return t.version }

// FindPK resolves a primary key to where its live tuple sits: the
// partition's ordinal and the slot, which never moves while the row
// lives. It is the one-key form of FindPKs, the executor's lookup.
func (t *Table) FindPK(pk uint64) (part int, slot int32, ok bool) {
	part = partitionOf(pk, len(t.Partitions))
	slot, ok = t.Partitions[part].Locate(pk)
	return part, slot, ok
}

// FindPKs is FindPK over a vector of keys, in the executor's dense row
// ids: ids[i] is base[part] + slot + 1 for keys[i]'s row, base[p] being
// the id of partition p's slot 0, or 0 where no live row has the key.
// One call per vector leaves the lookup loop without calls, so its
// loads overlap in the memory system; routing the vector to its
// partitions in a first pass, through ids, keeps that loop short enough
// for many of its misses to be in flight at once.
func (t *Table) FindPKs(keys []uint64, base []uint32, ids []uint32) {
	parts := t.Partitions
	ids = ids[:len(keys)]
	for i, k := range keys {
		ids[i] = uint32(partitionOf(k, len(parts)))
	}
	for i, k := range keys {
		pi := ids[i]
		loc, ok := parts[pi].index.get(k)
		if !ok {
			ids[i] = 0
			continue
		}
		ids[i] = base[pi] + uint32(loc) // loc is the slot plus one
	}
}

// insert places a tuple in the partition its key routes to (load and
// resync reload; apply rounds go through applyToPartition).
func (t *Table) insert(key uint64, tup []byte) error {
	return t.Partitions[partitionOf(key, len(t.Partitions))].Insert(key, tup)
}

// partitionOf routes a primary key to its partition's ordinal among n
// (paper §5: horizontal soft-partitioning on a hash of the row
// identity). Load, reload, apply step 2 and query probes all route
// through it, so a row is always found where it was placed.
//
// It folds the index's hash product to 32 bits, high half into low, and
// maps that onto [0, n) by a multiply and a shift: no division on the
// executor's lookup loop. The fold depends on every key bit, where the
// product's low bits alone would not — packed keys keep a small field
// there (an order line's number), and a remainder of n = 8 would skew
// the partitions by it. Each bit of the fold mixes a low bit of the
// product with a high one, so fixing the partition fixes none of the
// bits the index reads: a partition's keys spread over all of its
// shards and home slots.
func partitionOf(key uint64, n int) int {
	h := key * flatHashMul
	return int(uint64(uint32(h^h>>32)) * uint64(n) >> 32)
}

// Live returns the number of live tuples across all partitions.
func (t *Table) Live() int {
	n := 0
	for _, p := range t.Partitions {
		n += p.Live()
	}
	return n
}

// Replica is the OLAP replica: a set of partitioned single-snapshot
// tables plus the queue of propagated-but-not-yet-applied OLTP updates
// (the "OLTP Update Queue" of paper Fig. 1).
type Replica struct {
	tables map[storage.TableID]*Table
	order  []*Table
	parts  int

	// pool runs the apply rounds' tasks (steps 1–3 across all tables of
	// a round) and the executor's scans.
	// NumCPU workers unless SetApplyWorkers says otherwise.
	pool *Pool

	// pending holds pushed update batches awaiting application. Guarded
	// by mu: pushes arrive from the primary's dispatcher goroutine while
	// the OLAP dispatcher drains between query batches.
	mu       sync.Mutex
	pending  []proplog.Batch
	covered  uint64 // highest upTo received
	applied  uint64 // snapshot VID the stored data corresponds to
	floor    uint64 // updates at or below this VID are already in the data
	applyErr error

	// pendingReload is a staged resync snapshot awaiting atomic
	// installation by the next ApplyPending.
	pendingReload *Reload

	// zmBlock is the zone-map block size applied to tables created from
	// now on (and, via EnableZoneMaps, to existing ones).
	zmBlock int

	// snapMu guards the reader pins, the running round's flag and the
	// count of rounds waiting for the pins to drop (snapshot.go);
	// snapCond signals either dropping. snapMu may take r.mu inside,
	// never the reverse.
	snapMu        sync.Mutex
	snapCond      *sync.Cond
	pins          int
	applying      bool
	roundsWaiting int

	// onPush is the scheduler's apply-round kick.
	onPush func()
}

// NewReplica creates a replica whose tables are split into parts
// partitions each (paper: one partition per OLAP worker core).
func NewReplica(parts int) *Replica {
	if parts <= 0 {
		parts = 1
	}
	r := &Replica{
		tables: make(map[storage.TableID]*Table),
		parts:  parts,
		pool:   NewPool(runtime.NumCPU()),
	}
	r.snapCond = sync.NewCond(&r.snapMu)
	return r
}

// SetApplyWorkers sizes the replica's pool, the parallelism of its apply
// rounds and of the scans of the executor that shares it
// (the OLAP replica's dedicated cores). Call during wiring, before the
// scheduler starts applying; n <= 0 is ignored.
func (r *Replica) SetApplyWorkers(n int) {
	if n > 0 {
		r.pool = NewPool(n)
	}
}

// Pool returns the replica's worker pool. The executor over the replica
// runs its scans on it: a scheduler's apply rounds and its
// batches run on one goroutine and never overlap, so one pool is the
// replica's whole CPU budget.
func (r *Replica) Pool() *Pool { return r.pool }

// CreateTable registers a replicated relation. Its rows arrive keyed by
// the primary's packed primary key, which must be unique and immutable
// under updates (the primary's rows are keyed the same way); every
// partition indexes its rows by it. capacityHint sizes the partitions
// and their indexes. All DDL must precede use.
func (r *Replica) CreateTable(schema *storage.Schema, capacityHint int) *Table {
	t := &Table{Schema: schema, capHint: capacityHint / r.parts, zmBlock: r.zmBlock}
	t.Partitions = r.freshPartitions(t)
	r.tables[schema.ID] = t
	r.order = append(r.order, t)
	return t
}

// freshPartitions returns empty partitions for t, sized and synopsized
// as CreateTable built its first ones.
func (r *Replica) freshPartitions(t *Table) []*Partition {
	parts := make([]*Partition, r.parts)
	for i := range parts {
		parts[i] = NewPartition(t.Schema, t.capHint)
		if t.zmBlock > 0 {
			parts[i].EnableZoneMap(t.zmBlock)
		}
	}
	return parts
}

// EnableZoneMaps attaches per-block min/max synopses with blockTuples
// slots per block (align with the executor's MorselTuples) to every
// partition of every table, and to tables created or rebuilt (resync
// reloads) later. Column bounds materialize lazily: the executor
// records which columns queries push predicates on
// (Table.RequestSynopses) and the next apply round activates them with
// one exact column scan.
// Must run in a quiesced window: during wiring, or between a batch and
// the next apply round. blockTuples <= 0 disables zone maps.
func (r *Replica) EnableZoneMaps(blockTuples int) {
	if blockTuples < 0 {
		blockTuples = 0
	}
	r.zmBlock = blockTuples
	for _, t := range r.order {
		t.zmBlock = blockTuples
		for _, p := range t.Partitions {
			p.EnableZoneMap(blockTuples)
		}
	}
}

// EnableCompression does nothing: a replica keeps no encoded column
// vectors beside its rows. It stays only because the benchmark module's
// SUT (benchmark/sut.go and benchmark/layers.go) calls it; it goes once
// those calls do.
func (r *Replica) EnableCompression() {}

// RequestSynopses records interest in the synopsis columns the given
// pushed-down ranges filter on. Safe to call concurrently with query
// execution (it only ORs an atomic mask); the columns become active —
// and start paying their maintenance cost — at the next apply round
// (ApplyPending). The executor
// calls this for every compiled range predicate, so a scan's first run
// is unpruned and every later run skips blocks.
func (t *Table) RequestSynopses(ranges []ColRange) {
	if len(t.Partitions) == 0 || len(ranges) == 0 {
		return
	}
	zm := t.Partitions[0].zm
	if zm == nil {
		return
	}
	var mask uint64
	for _, rg := range ranges {
		if rg.Col < 0 || rg.Col >= len(zm.colPos) {
			continue
		}
		if ci := zm.colPos[rg.Col]; ci >= 0 {
			mask |= 1 << uint(ci)
		}
	}
	for {
		cur := t.wantedSyn.Load()
		if cur&mask == mask || t.wantedSyn.CompareAndSwap(cur, cur|mask) {
			return
		}
	}
}

// Table returns the replicated table with the given ID, or nil.
func (r *Replica) Table(id storage.TableID) *Table { return r.tables[id] }

// LoadTuple inserts a copy of one tuple under its primary key during
// initial load (VID 0 state), before the replica starts receiving
// propagated updates.
func (r *Replica) LoadTuple(id storage.TableID, key uint64, tuple []byte) error {
	t := r.tables[id]
	if t == nil {
		return fmt.Errorf("olap: load into unknown table %d", id)
	}
	t.version++
	return t.insert(key, tuple)
}

// ApplyUpdates implements the primary's update sink: pushed batches are
// queued (not applied) so queries currently executing are never
// disturbed; the OLAP dispatcher applies them between query batches.
func (r *Replica) ApplyUpdates(batches []proplog.Batch, upTo uint64) {
	r.mu.Lock()
	r.pending = append(r.pending, batches...)
	if upTo > r.covered {
		r.covered = upTo
	}
	kick := r.onPush
	r.mu.Unlock()
	if kick != nil {
		kick()
	}
}

// Covered returns the highest VID for which all updates have been
// received (though not necessarily applied).
func (r *Replica) Covered() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.covered
}

// caughtUp reports that nothing is queued — no update batch, no staged
// reload — and that the covered watermark has not passed seen: an apply
// round started now would find nothing.
func (r *Replica) caughtUp(seen uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending) == 0 && r.pendingReload == nil && r.covered <= seen
}

// AppliedVID returns the snapshot VID the replica's data reflects.
func (r *Replica) AppliedVID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// takeWork atomically removes the staged reload (if any) together with
// the queued batches and the current floor. One critical section, so an
// InstallReload that spliced its buffered resync-era batches into the
// queue is either seen whole (reload + batches) or not at all — a round
// can never drain batches that depend on a reload it has not taken.
func (r *Replica) takeWork() (*Reload, []proplog.Batch, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rl := r.pendingReload
	r.pendingReload = nil
	b := r.pending
	r.pending = nil
	return rl, b, r.floor
}

// SetFloor declares that the replica's data already reflects every
// update with VID <= v; such updates arriving through ApplyUpdates are
// discarded instead of applied. A replica bootstrapped from a snapshot
// taken at VID v sets the floor to v, which makes it safe to attach the
// update feed *before* shipping the snapshot (no update is lost, none is
// applied twice).
func (r *Replica) SetFloor(v uint64) {
	r.mu.Lock()
	if v > r.floor {
		r.floor = v
	}
	if v > r.applied {
		r.applied = v
	}
	r.mu.Unlock()
}

// Reload is a staged replacement snapshot for every table of the
// replica, used to resync after a dropped replication connection: the
// re-bootstrap accumulates rows here while queries keep running against
// the old (stale but consistent) data, and the next ApplyPending — which,
// like every round, starts only once no reader is pinned — replaces the
// tables' contents with it and raises the VID floor to the snapshot's
// VID.
type Reload struct {
	// parts holds every table's staged partitions, filled as the rows
	// arrive; the round that installs the reload swaps them in.
	parts map[storage.TableID][]*Partition
	vid   uint64

	// batches buffers update pushes that arrive while the snapshot is
	// still being staged. They must not enter the replica's live pending
	// queue yet: an apply round would lay them over the stale
	// pre-reconnect data (which is missing the outage gap) and, once
	// drained, the reload would wipe their effect while the raised floor
	// can never get them back — silent divergence. Instead they ride
	// along and are spliced into the pending queue atomically with the
	// reload's installation.
	batches []proplog.Batch
	covered uint64
}

// NewReload starts staging a replacement snapshot into fresh, empty
// partitions for every table (all DDL precedes use).
func (r *Replica) NewReload() *Reload {
	rl := &Reload{parts: make(map[storage.TableID][]*Partition, len(r.order))}
	for _, t := range r.order {
		rl.parts[t.Schema.ID] = r.freshPartitions(t)
	}
	return rl
}

// LoadTuple stages a copy of one snapshot tuple under its primary key,
// in the partition the key routes to. An unknown table, a tuple of the
// wrong width and a key the snapshot already holds fail here, at the
// source, so the round that installs the reload cannot fail.
func (rl *Reload) LoadTuple(id storage.TableID, key uint64, tup []byte) error {
	parts := rl.parts[id]
	if parts == nil {
		return fmt.Errorf("olap: reload of unknown table %d", id)
	}
	return parts[partitionOf(key, len(parts))].Insert(key, tup)
}

// ApplyUpdates buffers an update push received while the snapshot is
// being staged (same signature as the replica's sink method, so the
// connection handler can route pushes here during a resync). The
// batches are installed atomically with the reload; ones the snapshot
// already contains are then discarded by the raised VID floor.
func (rl *Reload) ApplyUpdates(batches []proplog.Batch, upTo uint64) {
	rl.batches = append(rl.batches, batches...)
	if upTo > rl.covered {
		rl.covered = upTo
	}
}

// InstallReload queues rl for atomic installation by the next
// ApplyPending. snapVID is the snapshot's VID; it becomes the replica's
// new floor, so queued updates the snapshot already contains are
// discarded instead of double-applied. Update pushes buffered in rl
// while it was being staged are spliced into the pending queue in the
// same critical section, so an apply round sees the reload and its
// trailing updates together or not at all. A later InstallReload before
// the next apply round supersedes an earlier one (the earlier one's
// spliced batches are then below the later snapshot's floor and are
// discarded).
func (r *Replica) InstallReload(rl *Reload, snapVID uint64) {
	rl.vid = snapVID
	r.mu.Lock()
	r.pendingReload = rl
	// The connection is ordered and handled by one goroutine, so every
	// batch already in the live queue predates rl's buffered ones:
	// appending preserves per-worker push order.
	r.pending = append(r.pending, rl.batches...)
	if rl.covered > r.covered {
		r.covered = rl.covered
	}
	kick := r.onPush
	r.mu.Unlock()
	rl.batches = nil
	if kick != nil {
		kick()
	}
}

// applyReload swaps every table's partitions for the staged ones and
// raises the floor to the snapshot's VID. It runs inside an apply round,
// which no reader overlaps, so none observes a half-replaced table set.
// Tables absent from the snapshot become empty — the primary shipped no
// rows for them.
func (r *Replica) applyReload(rl *Reload) {
	for _, t := range r.order {
		t.Partitions = rl.parts[t.Schema.ID]
		t.version++
	}
	r.SetFloor(rl.vid)
}
