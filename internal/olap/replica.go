package olap

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

// Table is one replicated relation: its schema and hash(RowID)
// partitions.
type Table struct {
	Schema     *storage.Schema
	Partitions []*Partition

	// capHint (per partition) and pkHint are retained so a resync reload
	// can rebuild partitions and the PK index with the original sizing.
	capHint int
	pkHint  int

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

	// pkFn and pkIdx are the table's primary-key index (pk -> tuple
	// locator, flatindex.go), keyed like the primary's rows and
	// maintained incrementally during load and update application. Every
	// join probe of the shared-execution engine is a lookup in it, so no
	// join ever needs a build side made from a full scan.
	pkFn  func(tup []byte) uint64
	pkIdx *flatIndex

	// scratch holds the table's reusable apply buffers (see applyScratch),
	// used only by the apply round's tasks.
	scratch applyScratch
}

// Version returns the table's data version; it changes whenever tuples
// are loaded or updates applied.
func (t *Table) Version() uint64 { return t.version }

// GetByPK resolves a primary key to the live tuple bytes (aliasing
// partition storage): one probe of the PK index, then a slice of the
// located partition's tuple array. It takes no lock — see flatIndex for
// why a reader never meets a writer.
func (t *Table) GetByPK(pk uint64) ([]byte, bool) {
	part, slot, ok := t.FindPK(pk)
	if !ok {
		return nil, false
	}
	return t.Partitions[part].Tuple(slot), true
}

// FindPK resolves a primary key to where its live tuple sits: the
// partition's ordinal and the slot, which never moves while the row
// lives. The executor turns the pair into a dense row id (the slots of
// the partitions before it, plus the slot) to index per-row bitmaps and
// link arrays of the table version it has pinned.
func (t *Table) FindPK(pk uint64) (part int, slot int32, ok bool) {
	loc, ok := t.pkIdx.get(pk)
	return int(loc>>32) - 1, int32(uint32(loc)), ok
}

// FindPKs is FindPK over a vector of keys, in the executor's dense row
// ids: ids[i] is base[part] + slot + 1 for keys[i]'s row, base[p] being
// the id of partition p's slot 0, or 0 where no live row has the key.
// One call per vector leaves the lookup loop without calls, so its
// loads overlap in the memory system.
func (t *Table) FindPKs(keys []uint64, base []uint32, ids []uint32) {
	for i, k := range keys {
		loc, ok := t.pkIdx.get(k)
		if !ok {
			ids[i] = 0
			continue
		}
		ids[i] = base[int(loc>>32)-1] + uint32(loc) + 1
	}
}

// insert places a tuple in the partition its RowID routes to and
// indexes its primary key there (load and resync reload; apply rounds
// go through applyToPartition).
func (t *Table) insert(rowID uint64, tup []byte) error {
	pi := t.partitionOf(rowID)
	return insertIndexed(t.Partitions[pi], pi, rowID, tup, t.pkIdx, t.pkFn)
}

// insertIndexed places a tuple in p, partition pi of its table, and
// stores the slot it landed in under its primary key in pk.
func insertIndexed(p *Partition, pi int, rowID uint64, tup []byte, pk *flatIndex, pkFn func([]byte) uint64) error {
	slot, err := p.insert(rowID, tup)
	if err == nil {
		pk.put(pkFn(tup), pkLoc(pi, slot))
	}
	return err
}

// partitionOf routes a RowID to its partition's ordinal (paper §5:
// horizontal soft-partitioning on a hash of the RowID attribute).
func (t *Table) partitionOf(rowID uint64) int {
	h := rowID * 0x9E3779B97F4A7C15
	return int(h % uint64(len(t.Partitions)))
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
	// a round), ActivateSynopses and the executor's scans.
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

// CreateTable registers a replicated relation whose rows are keyed by
// key, the primary's key function for the relation: the table keeps a
// PK index on it, through which every join probe into the table looks
// its rows up. Primary keys must be unique and immutable under updates
// (the primary's rows are keyed the same way). capacityHint sizes the
// partitions and the index. All DDL must precede use.
func (r *Replica) CreateTable(schema *storage.Schema, key func(tup []byte) uint64, capacityHint int) *Table {
	t := &Table{
		Schema: schema, capHint: capacityHint / r.parts, zmBlock: r.zmBlock,
		pkFn: key, pkHint: capacityHint, pkIdx: newFlatIndex(capacityHint),
	}
	for i := 0; i < r.parts; i++ {
		p := NewPartition(schema, t.capHint)
		if t.zmBlock > 0 {
			p.EnableZoneMap(t.zmBlock)
		}
		t.Partitions = append(t.Partitions, p)
	}
	r.tables[schema.ID] = t
	r.order = append(r.order, t)
	return t
}

// EnableZoneMaps attaches per-block min/max synopses with blockTuples
// slots per block (align with the executor's MorselTuples) to every
// partition of every table, and to tables created or rebuilt (resync
// reloads) later. Column bounds materialize lazily: the executor
// records which columns queries push predicates on
// (Table.RequestSynopses) and the next apply round — or an explicit
// ActivateSynopses call — activates them with one exact column scan.
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
// and start paying their maintenance cost — at the next quiesced
// window (ApplyPending, or an explicit ActivateSynopses). The executor
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

// ActivateSynopses materializes bounds for every column queries have
// requested since the last activation (one exact column scan per
// partition, one pool task each). Every apply round does the same per
// partition it touches; this entry point is for callers that run query
// batches without an interleaved apply (benchmarks, tests). It mutates
// the canonical partitions in place, so it must run in a quiesced
// window: no pinned reader, no apply round.
func (r *Replica) ActivateSynopses() {
	type part struct {
		p *Partition
		w uint64
	}
	var parts []part
	for _, t := range r.order {
		w := t.wantedSyn.Load()
		for _, p := range t.Partitions {
			if p.needsMaintenance(w) {
				parts = append(parts, part{p, w})
			}
		}
	}
	r.pool.ForEach(len(parts), func(_, i int) {
		parts[i].p.ActivateSynopsisCols(parts[i].w)
	})
}

// Table returns the replicated table with the given ID, or nil.
func (r *Replica) Table(id storage.TableID) *Table { return r.tables[id] }

// Tables returns all replicated tables in creation order.
func (r *Replica) Tables() []*Table { return r.order }

// Partitions returns the partition count per table.
func (r *Replica) Partitions() int { return r.parts }

// LoadTuple inserts one tuple during initial load (VID 0 state), before
// the replica starts receiving propagated updates.
func (r *Replica) LoadTuple(id storage.TableID, rowID uint64, tuple []byte) error {
	t := r.tables[id]
	if t == nil {
		return fmt.Errorf("olap: load into unknown table %d", id)
	}
	t.version++
	return t.insert(rowID, tuple)
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
	r    *Replica
	rows map[storage.TableID][]reloadRow
	vid  uint64

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

type reloadRow struct {
	rowID uint64
	tup   []byte
}

// NewReload starts staging a replacement snapshot.
func (r *Replica) NewReload() *Reload {
	return &Reload{r: r, rows: make(map[storage.TableID][]reloadRow)}
}

// LoadTuple stages one snapshot tuple. The caller owns tup; pass a copy
// if the backing buffer is recycled.
func (rl *Reload) LoadTuple(id storage.TableID, rowID uint64, tup []byte) error {
	if rl.r.tables[id] == nil {
		return fmt.Errorf("olap: reload of unknown table %d", id)
	}
	if rowID == 0 {
		// RowID 0 is the partitions' tombstone sentinel; staging it would
		// surface as silent divergence (a live-counted, scan-invisible
		// row) only after the reload installs. Fail at the source instead.
		return fmt.Errorf("olap: reload of reserved RowID 0 into table %d", id)
	}
	rl.rows[id] = append(rl.rows[id], reloadRow{rowID: rowID, tup: tup})
	return nil
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

// Rows returns the number of staged tuples.
func (rl *Reload) Rows() int {
	n := 0
	for _, rows := range rl.rows {
		n += len(rows)
	}
	return n
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

// applyReload replaces every table's contents with the staged snapshot:
// fresh partitions and a fresh PK index, sized like the originals. It
// runs inside an apply round, which no reader overlaps, so none observes
// a half-replaced table set. Tables absent from the snapshot
// become empty — the primary shipped no rows for them.
func (r *Replica) applyReload(rl *Reload) error {
	for _, t := range r.order {
		parts := make([]*Partition, len(t.Partitions))
		for i := range parts {
			parts[i] = NewPartition(t.Schema, t.capHint)
			if t.zmBlock > 0 {
				parts[i].EnableZoneMap(t.zmBlock)
			}
		}
		t.Partitions = parts
		t.pkIdx = newFlatIndex(t.pkHint)
		t.version++
		for _, row := range rl.rows[t.Schema.ID] {
			if err := t.insert(row.rowID, row.tup); err != nil {
				return err
			}
		}
	}
	r.SetFloor(rl.vid)
	return nil
}
