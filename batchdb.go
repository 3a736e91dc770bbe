// Package batchdb is an in-memory database engine for hybrid OLTP +
// OLAP workloads, reproducing the design of "BatchDB: Efficient
// Isolated Execution of Hybrid OLTP+OLAP Workloads for Interactive
// Applications" (Makreshanski, Giceva, Barthels, Alonso — SIGMOD 2017).
//
// BatchDB keeps two workload-specialized replicas of the data: a
// primary MVCC row store executing stored-procedure transactions, and a
// secondary single-snapshot replica executing analytical queries one
// batch at a time. Transactions export a physical update log that is
// applied at the secondary replica between query batches, so analytical
// scans never synchronize with transaction processing — the source of
// the paper's performance-isolation results.
//
// The DB value is the paper's "single system interface": callers submit
// transactions with Exec and analytical queries with Query without
// addressing replicas explicitly.
//
//	db, _ := batchdb.Open(batchdb.Config{})
//	tbl, _ := db.CreateTable(schema, keyFn, batchdb.TableOptions{Replicate: true})
//	db.Register("transfer", transferProc)
//	db.Start()
//	res := db.Exec("transfer", args)        // OLTP path
//	out, _ := db.Query(analyticalQuery)     // OLAP path (batched)
package batchdb

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"batchdb/internal/checkpoint"
	"batchdb/internal/ingest"
	"batchdb/internal/mvcc"
	"batchdb/internal/obs"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/oltp"
	"batchdb/internal/replica"
	"batchdb/internal/storage"
)

// Re-exported building blocks, so the public API is self-contained.
type (
	// Column defines one attribute of a relation.
	Column = storage.Column
	// Schema is a relation's physical layout.
	Schema = storage.Schema
	// TableID identifies a relation.
	TableID = storage.TableID
	// KeyFunc packs a tuple's primary key into uint64.
	KeyFunc = storage.KeyFunc
	// Txn is the handle stored procedures use to read and write.
	Txn = mvcc.Txn
	// Procedure is a stored procedure: deterministic given (args,
	// snapshot); all randomness belongs in args.
	Procedure = oltp.Procedure
	// Response is a transaction's outcome.
	Response = oltp.Response
	// Query is an analytical query (scan + joins + aggregates).
	Query = exec.Query
	// Probe is one join step of a Query: a lookup, in the probed table,
	// of the primary key its declared Key packs from the columns of a row
	// already in hand.
	Probe = exec.Probe
	// KeyField is one field of a Probe's Key.
	KeyField = exec.KeyField
	// Pred is one conjunct of a Query's or a Probe's Where.
	Pred = exec.Pred
	// AggSpec is one aggregate output of a Query.
	AggSpec = exec.AggSpec
	// Result is a Query's outcome.
	Result = exec.Result
	// DurabilityStats aggregates checkpoint/WAL/recovery counters.
	DurabilityStats = obs.DurabilityStats
	// BulkReport summarizes a BulkLoad: rows, chunks, achieved rate,
	// and the SLO governor's baseline/bound/throttle telemetry.
	BulkReport = ingest.Report
)

// Column type constants.
const (
	Int64   = storage.Int64
	Int32   = storage.Int32
	Float64 = storage.Float64
	String  = storage.String
	Time    = storage.Time
)

// Aggregate kinds.
const (
	Sum   = exec.Sum
	Count = exec.Count
)

// Comparison operators of CmpInt.
const EQ, LT, LE, GT, GE = exec.EQ, exec.LT, exec.LE, exec.GT, exec.GE

// SumCol is a Sum aggregate of the driver's numeric column col.
func SumCol(col int) AggSpec { return exec.SumCol(col) }

// CmpInt is the conjunct `col op v` over an integer or time column.
func CmpInt(col int, op exec.Op, v int64) Pred { return exec.CmpInt(col, op, v) }

// NewSchema builds a relation schema; see storage.NewSchema.
func NewSchema(id TableID, name string, cols []Column, key []int) *Schema {
	return storage.NewSchema(id, name, cols, key)
}

// Errors re-exported for callers.
var (
	// ErrConflict is a retryable first-writer-wins abort.
	ErrConflict = mvcc.ErrConflict
	// ErrDuplicateKey reports an insert of an existing primary key.
	ErrDuplicateKey = mvcc.ErrDuplicateKey
	// ErrNotFound reports an update/delete of a missing row.
	ErrNotFound = mvcc.ErrNotFound
)

// Config parameterizes a BatchDB instance.
type Config struct {
	// OLTPWorkers is the transactional worker count (default 4).
	OLTPWorkers int
	// OLAPWorkers bounds analytical scan/build parallelism (default 4).
	OLAPWorkers int
	// Partitions is the OLAP replica's partition count per table
	// (default OLAPWorkers).
	Partitions int
	// PushPeriod bounds update-propagation staleness (default 200 ms,
	// the paper's setting).
	PushPeriod time.Duration
	// WALSync forces fsync per group commit (DataDir mode).
	WALSync bool
	// DataDir enables durability when non-empty: segmented WAL with
	// rotation, background checkpoints, and bounded-time crash recovery
	// via RecoverDataDir.
	DataDir string
	// CheckpointEveryVIDs checkpoints after this many commits (DataDir
	// mode; default 50000, negative disables the trigger).
	CheckpointEveryVIDs int64
	// CheckpointEveryWALBytes checkpoints after this many logged bytes
	// (DataDir mode; default 64 MiB, negative disables the trigger).
	CheckpointEveryWALBytes int64
	// WALSegmentBytes is the WAL segment rotation threshold (DataDir
	// mode; default 16 MiB).
	WALSegmentBytes int64
	// DisableReplication runs the primary alone (the paper's NoRep
	// configuration); Query returns an error.
	DisableReplication bool
	// MetricsAddr, when non-empty, serves the unified metrics registry
	// over HTTP (/metrics in Prometheus text format, /healthz) on this
	// address. Use "127.0.0.1:0" to pick a free port; MetricsAddr()
	// reports the bound address after Start.
	MetricsAddr string
	// IngestChunkRows is the bulk-load chunk size: one chunk is one
	// transaction, one WAL record, one unit of atomicity (default 1024).
	IngestChunkRows int
}

// TableOptions controls a table's replication behaviour.
type TableOptions struct {
	// Replicate propagates the table's updates to the OLAP replica and
	// makes it queryable.
	Replicate bool
	// Analytical makes the table queryable without update propagation
	// (static dimension tables). Implied by Replicate.
	Analytical bool
	// CapacityHint sizes indexes and partitions.
	CapacityHint int
}

// Table is a handle to one relation.
type Table struct {
	// OLTP is the primary-replica table, usable inside procedures.
	OLTP *mvcc.Table
	id   TableID
	opts TableOptions
}

// ID returns the table's identifier.
func (t *Table) ID() TableID { return t.id }

// AddSecondary registers an ordered secondary index on the primary
// replica. Must precede data loading.
func (t *Table) AddSecondary(fn mvcc.SecondaryKeyFunc) *mvcc.Secondary {
	return t.OLTP.AddSecondary(fn)
}

// Load installs a tuple as initial data (VID 0). Must precede Start.
func (t *Table) Load(tup []byte) error { return t.OLTP.LoadRow(tup) }

// DB is a BatchDB instance: the paper's single system interface over
// the two replicas.
type DB struct {
	cfg    Config
	store  *mvcc.Store
	engine *oltp.Engine
	rep    *olap.Replica
	sched  *olap.Scheduler[*Query, Result]

	tables  map[TableID]*Table
	order   []*Table
	started bool

	// dur is the booted durability state (DataDir mode): WAL segment
	// manager + checkpointer. Set by RecoverDataDir, or by Start for a
	// fresh directory.
	dur *checkpoint.State

	// repSrv serves remote replicas once ServeReplicas ran.
	repSrv *replica.Server
	// wrSeq numbers attached workload replicas for metric labels.
	wrSeq atomic.Int64

	// reg is the unified metrics registry every subsystem registers its
	// counters into; metricsSrv is the optional HTTP exporter.
	reg        *obs.Registry
	metricsSrv *obs.Server
}

// Open creates an empty instance. Define tables, register procedures
// and load initial data, then call Start.
func Open(cfg Config) (*DB, error) {
	if cfg.OLTPWorkers <= 0 {
		cfg.OLTPWorkers = 4
	}
	if cfg.OLAPWorkers <= 0 {
		cfg.OLAPWorkers = 4
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = cfg.OLAPWorkers
	}
	if cfg.PushPeriod <= 0 {
		cfg.PushPeriod = 200 * time.Millisecond
	}
	if cfg.CheckpointEveryVIDs == 0 {
		cfg.CheckpointEveryVIDs = 50000
	}
	if cfg.CheckpointEveryWALBytes == 0 {
		cfg.CheckpointEveryWALBytes = 64 << 20
	}
	if cfg.WALSegmentBytes <= 0 {
		cfg.WALSegmentBytes = 16 << 20
	}
	db := &DB{
		cfg:    cfg,
		store:  mvcc.NewStore(),
		tables: make(map[TableID]*Table),
		reg:    obs.NewRegistry(),
	}
	return db, nil
}

// Store exposes the primary replica's storage engine (for integration
// with external tooling; normal use goes through Exec/Query).
func (db *DB) Store() *mvcc.Store { return db.store }

// CreateTable defines a relation. All DDL must precede Start.
func (db *DB) CreateTable(schema *Schema, keyFn KeyFunc, opts TableOptions) (*Table, error) {
	if db.started {
		return nil, errors.New("batchdb: CreateTable after Start")
	}
	if _, dup := db.tables[schema.ID]; dup {
		return nil, fmt.Errorf("batchdb: duplicate table id %d", schema.ID)
	}
	if opts.CapacityHint <= 0 {
		opts.CapacityHint = 1024
	}
	if opts.Replicate {
		opts.Analytical = true
	}
	t := &Table{
		OLTP: db.store.CreateTable(schema, keyFn, opts.CapacityHint),
		id:   schema.ID,
		opts: opts,
	}
	db.tables[schema.ID] = t
	db.order = append(db.order, t)
	return t, nil
}

// Register installs a stored procedure. Must precede Start.
func (db *DB) Register(name string, p Procedure) error {
	if db.started {
		return errors.New("batchdb: Register after Start")
	}
	if db.engine == nil {
		if err := db.buildEngine(); err != nil {
			return err
		}
	}
	db.engine.Register(name, p)
	return nil
}

func (db *DB) buildEngine() error {
	replicated := make(map[TableID]bool)
	for id, t := range db.tables {
		if t.opts.Replicate {
			replicated[id] = true
		}
	}
	e, err := oltp.New(db.store, oltp.Config{
		Workers:       db.cfg.OLTPWorkers,
		PushPeriod:    db.cfg.PushPeriod,
		Replicated:    replicated,
		FieldSpecific: true,
	})
	if err != nil {
		return err
	}
	// The bulk-ingest procedure is always installed so recovery replay
	// of logged ingest chunks finds it even if this run never bulk-loads.
	ingest.RegisterProc(e)
	db.engine = e
	return nil
}

// RecoveryInfo describes what a DataDir recovery did.
type RecoveryInfo struct {
	// CheckpointVID is the restored checkpoint (0 = recovered from the
	// seed + full log).
	CheckpointVID uint64
	// FellBack is true when the newest checkpoint failed verification
	// and an older recovery point was used.
	FellBack bool
	// Replayed counts WAL commands re-executed (only those with VID
	// above CheckpointVID — recovery cost is bounded by the WAL tail).
	Replayed int
	// ReplayTime is the wall time spent replaying.
	ReplayTime time.Duration
}

// NeedsSeed reports whether a DataDir instance must have its initial
// (VID 0) data loaded by the caller before recovery: true for a fresh
// directory or one without checkpoints (the log replays on top of the
// seed), false once a checkpoint exists (the checkpoint replaces the
// seed — loading it again is an error).
func (db *DB) NeedsSeed() (bool, error) {
	if db.cfg.DataDir == "" {
		return true, nil
	}
	has, err := checkpoint.DirHasCheckpoint(db.cfg.DataDir)
	return !has, err
}

// RecoverDataDir restores the newest valid checkpoint (if any) and
// replays the WAL tail above it. Call after CreateTable/Register (and
// after seed loading iff NeedsSeed), before Start.
func (db *DB) RecoverDataDir() (RecoveryInfo, error) {
	if db.started {
		return RecoveryInfo{}, errors.New("batchdb: RecoverDataDir after Start")
	}
	if db.cfg.DataDir == "" {
		return RecoveryInfo{}, errors.New("batchdb: RecoverDataDir requires Config.DataDir")
	}
	if db.dur != nil {
		return RecoveryInfo{}, errors.New("batchdb: RecoverDataDir called twice")
	}
	if db.engine == nil {
		if err := db.buildEngine(); err != nil {
			return RecoveryInfo{}, err
		}
	}
	st, info, err := checkpoint.Boot(db.engine, checkpoint.BootConfig{
		Dir:          db.cfg.DataDir,
		SegmentBytes: db.cfg.WALSegmentBytes,
		Sync:         db.cfg.WALSync,
	})
	if err != nil {
		return RecoveryInfo{}, err
	}
	db.dur = st
	return RecoveryInfo{
		CheckpointVID: info.CheckpointVID,
		FellBack:      info.FellBack,
		Replayed:      info.Replayed,
		ReplayTime:    info.ReplayTime,
	}, nil
}

// Checkpoint forces a checkpoint now (DataDir mode, after Start) and
// returns its VID.
func (db *DB) Checkpoint() (uint64, error) {
	if db.dur == nil || !db.started {
		return 0, errors.New("batchdb: Checkpoint requires a started DataDir instance")
	}
	info, err := db.dur.Checkpoint(db.engine)
	if err != nil {
		return 0, err
	}
	return info.VID, nil
}

// DurabilityStats returns checkpoint/WAL/recovery counters (nil without
// DataDir).
func (db *DB) DurabilityStats() *DurabilityStats {
	if db.dur == nil {
		return nil
	}
	return db.dur.Stats()
}

// Start bootstraps the OLAP replica from the loaded data and launches
// both dispatchers.
func (db *DB) Start() error {
	if db.started {
		return errors.New("batchdb: already started")
	}
	if db.engine == nil {
		if err := db.buildEngine(); err != nil {
			return err
		}
	}
	if db.cfg.DataDir != "" && db.dur == nil {
		// Fresh directories boot inline (recording the seed
		// fingerprint); existing state must go through RecoverDataDir
		// so the caller knows recovery happened.
		initialized, err := checkpoint.DirInitialized(db.cfg.DataDir)
		if err != nil {
			return err
		}
		if initialized {
			return errors.New("batchdb: DataDir holds existing state; call RecoverDataDir before Start")
		}
		st, _, err := checkpoint.Boot(db.engine, checkpoint.BootConfig{
			Dir:          db.cfg.DataDir,
			SegmentBytes: db.cfg.WALSegmentBytes,
			Sync:         db.cfg.WALSync,
		})
		if err != nil {
			return err
		}
		db.dur = st
	}
	if !db.cfg.DisableReplication {
		rep, err := db.attachReplica(db.cfg.Partitions)
		if err != nil {
			return err
		}
		db.rep = rep
		db.sched = exec.NewScheduler(rep, db.engine, db.cfg.OLAPWorkers)
		db.sched.Start()
	}
	db.engine.Start()
	if db.dur != nil {
		pol := checkpoint.Policy{}
		if db.cfg.CheckpointEveryVIDs > 0 {
			pol.EveryVIDs = uint64(db.cfg.CheckpointEveryVIDs)
		}
		if db.cfg.CheckpointEveryWALBytes > 0 {
			pol.EveryWALBytes = db.cfg.CheckpointEveryWALBytes
		}
		db.dur.StartRunner(db.engine, pol)
	}
	// Register every started subsystem into the unified registry; the
	// stats structs remain the live storage, the registry is the view.
	db.engine.RegisterMetrics(db.reg)
	if db.sched != nil {
		db.sched.RegisterMetrics(db.reg, obs.L("class", "online"))
	}
	if db.dur != nil {
		obs.RegisterDurability(db.reg, db.dur.Stats())
	}
	if db.cfg.MetricsAddr != "" {
		srv, err := obs.Serve(db.cfg.MetricsAddr, db.reg, db.engine.Err)
		if err != nil {
			return err
		}
		db.metricsSrv = srv
	}
	db.started = true
	return nil
}

// Metrics returns the instance's unified metrics registry. Callers may
// register their own instruments into it before or after Start.
func (db *DB) Metrics() *obs.Registry { return db.reg }

// MetricsAddr returns the bound address of the metrics HTTP endpoint
// ("" when Config.MetricsAddr was empty).
func (db *DB) MetricsAddr() string {
	if db.metricsSrv == nil {
		return ""
	}
	return db.metricsSrv.Addr()
}

// Exec submits one stored-procedure call (the OLTP path) and waits for
// its outcome. A Response with ErrConflict should be retried by the
// caller.
func (db *DB) Exec(proc string, args []byte) Response {
	if !db.started {
		return Response{Err: errors.New("batchdb: not started")}
	}
	return db.engine.Exec(proc, args)
}

// BulkLoad streams rows from src (ok=false ends the stream) into table
// through the governed bulk-ingest path: rows are grouped into chunks,
// each chunk commits atomically through the normal WAL/group-commit
// machinery (and propagates to the OLAP replica like any transaction),
// and an admission governor throttles the chunk rate to keep the
// interactive OLTP p99 within 1.5x its unloaded baseline (the
// governor's default SLO). Returns when the stream is exhausted and
// every chunk is durably acknowledged; on error, the report still
// describes the durable prefix.
func (db *DB) BulkLoad(table TableID, src func() ([]byte, bool)) (BulkReport, error) {
	if !db.started {
		return BulkReport{}, errors.New("batchdb: not started")
	}
	if _, ok := db.tables[table]; !ok {
		return BulkReport{}, fmt.Errorf("batchdb: no table %d", table)
	}
	l := ingest.NewLoader(db.engine, table, ingest.Config{ChunkRows: db.cfg.IngestChunkRows})
	return l.Load(src)
}

// BulkLoadRows is BulkLoad over an in-memory row slice.
func (db *DB) BulkLoadRows(table TableID, rows [][]byte) (BulkReport, error) {
	return db.BulkLoad(table, ingest.SliceSource(rows))
}

// Query submits one analytical query (the OLAP path). The query joins
// the next batch; its result reflects the latest committed snapshot at
// batch start (paper §5).
func (db *DB) Query(q *Query) (Result, error) {
	if db.sched == nil {
		return Result{}, errors.New("batchdb: replication disabled or not started")
	}
	return db.sched.Query(q)
}

// LatestVID returns the primary's committed snapshot watermark.
func (db *DB) LatestVID() uint64 { return db.engine.LatestVID() }

// OLTPStats returns the transactional component's counters.
func (db *DB) OLTPStats() *oltp.Stats { return db.engine.Stats() }

// OLAPStats returns the analytical dispatcher's counters (nil when
// replication is disabled).
func (db *DB) OLAPStats() *olap.SchedulerStats {
	if db.sched == nil {
		return nil
	}
	return db.sched.Stats()
}

// Replica exposes the local OLAP replica (nil when disabled).
func (db *DB) Replica() *olap.Replica { return db.rep }

// Engine exposes the OLTP engine for benchmark harnesses.
func (db *DB) Engine() *oltp.Engine { return db.engine }

// Close stops dispatchers and closes the log. Replica connections are
// severed so remote nodes observe the shutdown (degraded mode +
// reconnect attempts) instead of syncing against a stopped engine.
func (db *DB) Close() error {
	if db.metricsSrv != nil {
		db.metricsSrv.Close()
		db.metricsSrv = nil
	}
	if db.repSrv != nil {
		db.repSrv.Close()
	}
	if db.sched != nil {
		db.sched.Close()
	}
	if db.dur != nil {
		// Stop the checkpointer before the engine: a checkpoint in
		// flight rendezvouses with the dispatcher.
		db.dur.StopRunner()
	}
	if db.engine != nil {
		return db.engine.Close()
	}
	return nil
}
