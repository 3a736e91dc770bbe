package olap_test

// Snapshot-isolation oracle: a randomized hybrid workload where every
// OLAP batch result is checked against a serial re-execution of the
// committed transaction prefix at the batch's snapshot VID.
//
// The workload is a bank: accounts with balances, concurrent transfer
// transactions through the real OLTP engine (MVCC, group commit,
// update propagation), and analytical "audit" queries through the
// batch-at-a-time scheduler over the propagated replica. Because every
// pair of transfers touching a common account conflicts on its write
// set (first-committer-wins), the committed history is serializable in
// commit-VID order — so replaying the committed prefix with VID <= S
// serially must reproduce, exactly, the balances an OLAP batch at
// snapshot S observed. Any torn batch (updates applied past the
// snapshot, or missing committed updates below it) breaks the
// equality.

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batchdb/internal/ingest"
	"batchdb/internal/mvcc"
	"batchdb/internal/olap"
	"batchdb/internal/oltp"
	"batchdb/internal/resmodel"
	"batchdb/internal/storage"
)

const (
	oracleAccounts = 32
	oracleInitBal  = 1000
)

// op is one committed transaction as the clients observed it.
type op struct {
	vid      uint64
	insert   bool // seed insert of account `from` with balance `amt`
	from, to int64
	amt      int64
}

// audit is one OLAP batch observation: the snapshot VID and the full
// balance map the scan saw.
type audit struct {
	snap uint64
	bals map[int64]int64
}

func accountSchema() *storage.Schema {
	return storage.NewSchema(1, "account", []storage.Column{
		{Name: "id", Type: storage.Int64},
		{Name: "bal", Type: storage.Int64},
	}, []int{0})
}

func transferArgs(from, to, amt int64) []byte {
	b := make([]byte, 24)
	binary.LittleEndian.PutUint64(b, uint64(from))
	binary.LittleEndian.PutUint64(b[8:], uint64(to))
	binary.LittleEndian.PutUint64(b[16:], uint64(amt))
	return b
}

// The oracle runs twice: with one audit session, which the scheduler
// never paces, and with three, whose batches form on the heartbeat — so
// that gap rounds apply most of every batch's updates ahead of its
// barrier, in several pieces. Either way an audit must equal the serial
// replay at its snapshot, and its snapshot must cover every commit
// acknowledged before the audit was submitted.
func TestSnapshotIsolationOracle(t *testing.T) {
	t.Run("lone", func(t *testing.T) { snapshotIsolationOracle(t, 1, 0) })
	t.Run("paced", func(t *testing.T) { snapshotIsolationOracle(t, 3, 4*time.Millisecond) })
}

func snapshotIsolationOracle(t *testing.T, sessions int, txnPause time.Duration) {
	schema := accountSchema()
	store := mvcc.NewStore()
	tbl := store.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 1024)

	engine, err := oltp.New(store, oltp.Config{Workers: 4, PushPeriod: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	engine.Register("seed", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		id := int64(binary.LittleEndian.Uint64(args))
		bal := int64(binary.LittleEndian.Uint64(args[8:]))
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, id)
		schema.PutInt64(tup, 1, bal)
		_, err := tx.Insert(tbl, tup)
		return nil, err
	})
	engine.Register("transfer", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		from := int64(binary.LittleEndian.Uint64(args))
		to := int64(binary.LittleEndian.Uint64(args[8:]))
		amt := int64(binary.LittleEndian.Uint64(args[16:]))
		if err := tx.Update(tbl, uint64(from), []int{1}, func(tup []byte) {
			schema.PutInt64(tup, 1, schema.GetInt64(tup, 1)-amt)
		}); err != nil {
			return nil, err
		}
		return nil, tx.Update(tbl, uint64(to), []int{1}, func(tup []byte) {
			schema.PutInt64(tup, 1, schema.GetInt64(tup, 1)+amt)
		})
	})

	rep := olap.NewReplica(4)
	rep.CreateTable(schema, 256)
	engine.SetSink(rep)

	// The analytical query: pin the latest installed snapshot, scan its
	// account table and return the complete balance map it exposes. The
	// overlap scheduler applies updates concurrently with this scan, so
	// reading through a pinned view (not the canonical table) is part of
	// the contract under test; the audit reports the pinned version's
	// actual VID, which may run ahead of the scheduler's floor.
	runBatch := func(queries []int, snap uint64) []audit {
		sv := rep.PinSnapshot()
		defer sv.Unpin()
		vid := sv.VID()
		if vid < snap {
			vid = snap
		}
		bals := scanBalances(schema, sv)
		out := make([]audit, len(queries))
		for i := range out {
			out[i] = audit{snap: vid, bals: bals}
		}
		return out
	}
	sched := olap.NewScheduler(rep, engine, runBatch)

	engine.Start()
	defer engine.Close()
	sched.Start()
	defer sched.Close()

	var logMu sync.Mutex
	var committed []op
	var acked atomic.Uint64 // highest commit VID a client has been told of

	// Seed through the transactional path so the oracle's serial replay
	// covers the whole history from an empty database.
	for id := int64(1); id <= oracleAccounts; id++ {
		r := engine.Exec("seed", transferArgs(id, oracleInitBal, 0))
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		committed = append(committed, op{vid: r.CommitVID, insert: true, from: id, amt: oracleInitBal})
	}

	const (
		writers        = 4
		txnsPerWriter  = 150
		auditInterval  = 2 * time.Millisecond
		conflictBudget = 100
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < txnsPerWriter; i++ {
				from := 1 + rng.Int63n(oracleAccounts)
				to := 1 + rng.Int63n(oracleAccounts-1)
				if to >= from {
					to++
				}
				amt := 1 + rng.Int63n(50)
				var r oltp.Response
				for try := 0; ; try++ {
					r = engine.Exec("transfer", transferArgs(from, to, amt))
					if !errors.Is(r.Err, mvcc.ErrConflict) {
						break
					}
					if try > conflictBudget {
						errCh <- r.Err
						return
					}
				}
				if r.Err != nil {
					errCh <- r.Err
					return
				}
				logMu.Lock()
				committed = append(committed, op{vid: r.CommitVID, from: from, to: to, amt: amt})
				logMu.Unlock()
				for v := acked.Load(); r.CommitVID > v && !acked.CompareAndSwap(v, r.CommitVID); v = acked.Load() {
				}
				time.Sleep(txnPause)
			}
		}(int64(w + 1))
	}

	// Concurrent audits: each exercises a fresh snapshot install while
	// transfers race with the apply windows.
	var auditMu sync.Mutex
	var audits []audit
	stopAudits := make(chan struct{})
	var auditWG sync.WaitGroup
	for g := 0; g < sessions; g++ {
		auditWG.Add(1)
		go func() {
			defer auditWG.Done()
			for {
				select {
				case <-stopAudits:
					return
				default:
				}
				floor := acked.Load()
				a, err := sched.Query(0)
				if err != nil {
					return
				}
				if a.snap < floor {
					t.Errorf("audit at snapshot %d misses commit %d, acknowledged before it was submitted", a.snap, floor)
					return
				}
				auditMu.Lock()
				audits = append(audits, a)
				auditMu.Unlock()
				time.Sleep(auditInterval)
			}
		}()
	}

	wg.Wait()
	close(stopAudits)
	auditWG.Wait()
	if gap := sched.Stats().ApplyRounds[olap.CauseGap].Load(); (sessions > 1) != (gap > 0) {
		t.Fatalf("%d audit sessions, %d gap rounds: gap rounds run exactly when batches are paced", sessions, gap)
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// One final audit with every transfer committed.
	final, err := sched.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	audits = append(audits, final)

	logMu.Lock()
	history := append([]op(nil), committed...)
	logMu.Unlock()
	sortOps(history)
	for i := 1; i < len(history); i++ {
		if history[i].vid == history[i-1].vid {
			t.Fatalf("duplicate commit VID %d", history[i].vid)
		}
	}

	// The oracle: serial replay of the committed prefix at each audit's
	// snapshot VID must reproduce the audited balances exactly.
	distinct := map[uint64]bool{}
	for _, a := range audits {
		distinct[a.snap] = true
		want := replaySerial(history, a.snap)
		if len(a.bals) != len(want) {
			t.Fatalf("snapshot %d: audit saw %d accounts, serial replay has %d",
				a.snap, len(a.bals), len(want))
		}
		var total int64
		for id, bal := range a.bals {
			if wb, ok := want[id]; !ok || wb != bal {
				t.Fatalf("snapshot %d: account %d = %d, serial replay says %d",
					a.snap, id, bal, want[id])
			}
			total += bal
		}
		if len(a.bals) == oracleAccounts && total != oracleAccounts*oracleInitBal {
			t.Fatalf("snapshot %d: total balance %d, want %d (money not conserved)",
				a.snap, total, oracleAccounts*oracleInitBal)
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("oracle exercised only %d distinct snapshots", len(distinct))
	}
	if final.snap < history[len(history)-1].vid {
		t.Fatalf("final audit snapshot %d below last commit %d", final.snap, history[len(history)-1].vid)
	}
}

// scanBalances reads the complete balance map a pinned snapshot
// exposes.
func scanBalances(schema *storage.Schema, sv *olap.Snapshot) map[int64]int64 {
	bals := make(map[int64]int64)
	for _, p := range sv.Table(1).Partitions {
		p.Scan(func(_ uint64, tup []byte) bool {
			bals[schema.GetInt64(tup, 0)] = schema.GetInt64(tup, 1)
			return true
		})
	}
	return bals
}

// TestConcurrentPinnedSnapshots holds several snapshot pins at distinct
// VIDs across many concurrent apply rounds, then checks each pinned
// version still replays exactly the committed prefix at its VID — i.e.
// installed versions are immutable no matter how much the head advances
// — and that the version chain grows while old versions are pinned and
// collapses back to the head alone once the last pin drops.
func TestConcurrentPinnedSnapshots(t *testing.T) {
	schema := accountSchema()
	store := mvcc.NewStore()
	tbl := store.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 1024)

	engine, err := oltp.New(store, oltp.Config{Workers: 4, PushPeriod: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	engine.Register("seed", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		id := int64(binary.LittleEndian.Uint64(args))
		bal := int64(binary.LittleEndian.Uint64(args[8:]))
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, id)
		schema.PutInt64(tup, 1, bal)
		_, err := tx.Insert(tbl, tup)
		return nil, err
	})
	engine.Register("transfer", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		from := int64(binary.LittleEndian.Uint64(args))
		to := int64(binary.LittleEndian.Uint64(args[8:]))
		amt := int64(binary.LittleEndian.Uint64(args[16:]))
		if err := tx.Update(tbl, uint64(from), []int{1}, func(tup []byte) {
			schema.PutInt64(tup, 1, schema.GetInt64(tup, 1)-amt)
		}); err != nil {
			return nil, err
		}
		return nil, tx.Update(tbl, uint64(to), []int{1}, func(tup []byte) {
			schema.PutInt64(tup, 1, schema.GetInt64(tup, 1)+amt)
		})
	})

	rep := olap.NewReplica(4)
	rep.CreateTable(schema, 256)
	engine.SetSink(rep)

	runBatch := func(queries []int, snap uint64) []audit {
		sv := rep.PinSnapshot()
		defer sv.Unpin()
		out := make([]audit, len(queries))
		for i := range out {
			out[i] = audit{snap: sv.VID(), bals: scanBalances(schema, sv)}
		}
		return out
	}
	sched := olap.NewScheduler(rep, engine, runBatch)

	engine.Start()
	defer engine.Close()
	sched.Start()
	defer sched.Close()

	var logMu sync.Mutex
	var committed []op
	for id := int64(1); id <= oracleAccounts; id++ {
		r := engine.Exec("seed", transferArgs(id, oracleInitBal, 0))
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		committed = append(committed, op{vid: r.CommitVID, insert: true, from: id, amt: oracleInitBal})
	}

	// Background writers keep apply rounds racing the pinned readers for
	// the whole test.
	const writers = 2
	var wg sync.WaitGroup
	stopWriters := make(chan struct{})
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stopWriters:
					return
				default:
				}
				from := 1 + rng.Int63n(oracleAccounts)
				to := 1 + rng.Int63n(oracleAccounts-1)
				if to >= from {
					to++
				}
				amt := 1 + rng.Int63n(50)
				r := engine.Exec("transfer", transferArgs(from, to, amt))
				if errors.Is(r.Err, mvcc.ErrConflict) {
					continue
				}
				if r.Err != nil {
					errCh <- r.Err
					return
				}
				logMu.Lock()
				committed = append(committed, op{vid: r.CommitVID, from: from, to: to, amt: amt})
				logMu.Unlock()
			}
		}(int64(w + 1))
	}

	// Take several pins at strictly increasing VIDs, each separated by a
	// scheduler round that forces fresh transfers to be applied. All pins
	// stay held while later rounds install newer versions on top.
	const npins = 4
	pins := make([]*olap.Snapshot, 0, npins)
	maxChain := 0
	for len(pins) < npins {
		if _, err := sched.Query(0); err != nil {
			t.Fatal(err)
		}
		sv := rep.PinSnapshot()
		if n := len(pins); n > 0 && sv.VID() <= pins[n-1].VID() {
			sv.Unpin() // no new commits applied since the last pin; retry
			time.Sleep(time.Millisecond)
			continue
		}
		pins = append(pins, sv)
		if cl := rep.SnapshotChainLen(); cl > maxChain {
			maxChain = cl
		}
	}
	close(stopWriters)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Force one more round so the head moves past every pin.
	if _, err := sched.Query(0); err != nil {
		t.Fatal(err)
	}
	if cl := rep.SnapshotChainLen(); cl > maxChain {
		maxChain = cl
	}
	if maxChain < 2 {
		t.Fatalf("chain never grew past the head (max %d) with %d pins in flight", maxChain, npins)
	}
	if got := rep.PinnedSnapshots(); got < npins {
		t.Fatalf("PinnedSnapshots = %d, want >= %d", got, npins)
	}

	logMu.Lock()
	history := append([]op(nil), committed...)
	logMu.Unlock()
	sortOps(history)

	// Every pinned version must still equal the serial replay of its
	// committed prefix — scanned *after* all the later versions were
	// built and installed over it.
	for _, sv := range pins {
		want := replaySerial(history, sv.VID())
		got := scanBalances(schema, sv)
		if len(got) != len(want) {
			t.Fatalf("pinned snapshot %d: saw %d accounts, serial replay has %d",
				sv.VID(), len(got), len(want))
		}
		for id, bal := range got {
			if wb, ok := want[id]; !ok || wb != bal {
				t.Fatalf("pinned snapshot %d: account %d = %d, serial replay says %d",
					sv.VID(), id, bal, want[id])
			}
		}
	}

	// Dropping the pins lets the reclaimer retire every old version; the
	// chain collapses to the head alone.
	retiredBefore := rep.RetiredSnapshots()
	for _, sv := range pins {
		sv.Unpin()
	}
	sched.Close()
	if cl := rep.SnapshotChainLen(); cl != 1 {
		t.Fatalf("chain length %d after unpinning all, want 1", cl)
	}
	if rep.RetiredSnapshots() <= retiredBefore {
		t.Fatalf("no versions retired after unpinning %d old pins", npins)
	}
}

// replaySerial re-executes the committed prefix with vid <= snap in
// commit order, from an empty database.
func replaySerial(history []op, snap uint64) map[int64]int64 {
	bals := make(map[int64]int64)
	for _, o := range history {
		if o.vid > snap {
			break
		}
		if o.insert {
			bals[o.from] = o.amt
			continue
		}
		bals[o.from] -= o.amt
		bals[o.to] += o.amt
	}
	return bals
}

func sortOps(ops []op) {
	sort.Slice(ops, func(i, j int) bool { return ops[i].vid < ops[j].vid })
}

// TestSnapshotIsolationOracleWithIngest extends the oracle with bulk
// ingest: governed chunks of brand-new accounts commit through the
// bulk-load stored procedure while transfers churn the seeded accounts
// and audits run concurrently. Every pinned-snapshot batch must still
// equal the serial replay of the committed prefix at its snapshot —
// which forces each chunk to be atomic (all of its accounts visible or
// none) — and the audited total must equal the seeded money plus
// exactly the chunks committed at or below the snapshot.
func TestSnapshotIsolationOracleWithIngest(t *testing.T) {
	const (
		chunkRows   = 64
		chunkCount  = 20
		chunkBal    = int64(100)
		ingestBase  = int64(10_000) // first bulk account id, far above the seeded range
		transferers = 3
	)
	schema := accountSchema()
	store := mvcc.NewStore()
	tbl := store.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, 4096)

	engine, err := oltp.New(store, oltp.Config{Workers: 4, PushPeriod: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	engine.Register("seed", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		id := int64(binary.LittleEndian.Uint64(args))
		bal := int64(binary.LittleEndian.Uint64(args[8:]))
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, id)
		schema.PutInt64(tup, 1, bal)
		_, err := tx.Insert(tbl, tup)
		return nil, err
	})
	engine.Register("transfer", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		from := int64(binary.LittleEndian.Uint64(args))
		to := int64(binary.LittleEndian.Uint64(args[8:]))
		amt := int64(binary.LittleEndian.Uint64(args[16:]))
		if err := tx.Update(tbl, uint64(from), []int{1}, func(tup []byte) {
			schema.PutInt64(tup, 1, schema.GetInt64(tup, 1)-amt)
		}); err != nil {
			return nil, err
		}
		return nil, tx.Update(tbl, uint64(to), []int{1}, func(tup []byte) {
			schema.PutInt64(tup, 1, schema.GetInt64(tup, 1)+amt)
		})
	})
	ingest.RegisterProc(engine)

	rep := olap.NewReplica(4)
	rep.CreateTable(schema, 256)
	engine.SetSink(rep)
	runBatch := func(queries []int, snap uint64) []audit {
		sv := rep.PinSnapshot()
		defer sv.Unpin()
		vid := sv.VID()
		if vid < snap {
			vid = snap
		}
		bals := scanBalances(schema, sv)
		out := make([]audit, len(queries))
		for i := range out {
			out[i] = audit{snap: vid, bals: bals}
		}
		return out
	}
	sched := olap.NewScheduler(rep, engine, runBatch)

	engine.Start()
	defer engine.Close()
	sched.Start()
	defer sched.Close()

	var logMu sync.Mutex
	var committed []op

	for id := int64(1); id <= oracleAccounts; id++ {
		r := engine.Exec("seed", transferArgs(id, oracleInitBal, 0))
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		committed = append(committed, op{vid: r.CommitVID, insert: true, from: id, amt: oracleInitBal})
	}

	var wg sync.WaitGroup
	errCh := make(chan error, transferers+1)
	for w := 0; w < transferers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				from := 1 + rng.Int63n(oracleAccounts)
				to := 1 + rng.Int63n(oracleAccounts-1)
				if to >= from {
					to++
				}
				amt := 1 + rng.Int63n(50)
				var r oltp.Response
				for try := 0; ; try++ {
					r = engine.Exec("transfer", transferArgs(from, to, amt))
					if !errors.Is(r.Err, mvcc.ErrConflict) {
						break
					}
					if try > 100 {
						errCh <- r.Err
						return
					}
				}
				if r.Err != nil {
					errCh <- r.Err
					return
				}
				logMu.Lock()
				committed = append(committed, op{vid: r.CommitVID, from: from, to: to, amt: amt})
				logMu.Unlock()
			}
		}(int64(w + 101))
	}

	// The bulk load: chunkCount chunks of chunkRows brand-new accounts,
	// paced so chunks interleave with the transfer history. Each ack
	// records one insert op per account at the chunk's commit VID.
	chunkVIDs := make([]uint64, 0, chunkCount)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rows := make([][]byte, 0, chunkRows*chunkCount)
		for i := 0; i < chunkRows*chunkCount; i++ {
			tup := schema.NewTuple()
			schema.PutInt64(tup, 0, ingestBase+int64(i))
			schema.PutInt64(tup, 1, chunkBal)
			rows = append(rows, tup)
		}
		l := ingest.NewLoader(engine, schema.ID, ingest.Config{
			ChunkRows:       chunkRows,
			DisableGovernor: true,
			Governor:        resmodel.GovernorConfig{MaxRate: 300}, // paced, ungoverned
			OnChunk: func(a ingest.ChunkAck) {
				logMu.Lock()
				for r := 0; r < a.Rows; r++ {
					id := ingestBase + int64(a.Index*chunkRows+r)
					committed = append(committed, op{vid: a.VID, insert: true, from: id, amt: chunkBal})
				}
				chunkVIDs = append(chunkVIDs, a.VID)
				logMu.Unlock()
			},
		})
		if _, err := l.Load(ingest.SliceSource(rows)); err != nil {
			errCh <- err
		}
	}()

	var audits []audit
	stopAudits := make(chan struct{})
	auditDone := make(chan struct{})
	go func() {
		defer close(auditDone)
		for {
			select {
			case <-stopAudits:
				return
			default:
			}
			a, err := sched.Query(0)
			if err != nil {
				return
			}
			audits = append(audits, a)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(stopAudits)
	<-auditDone
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	final, err := sched.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	audits = append(audits, final)

	logMu.Lock()
	history := append([]op(nil), committed...)
	vids := append([]uint64(nil), chunkVIDs...)
	logMu.Unlock()
	sortOps(history)

	for _, a := range audits {
		want := replaySerial(history, a.snap)
		if len(a.bals) != len(want) {
			t.Fatalf("snapshot %d: audit saw %d accounts, serial replay has %d", a.snap, len(a.bals), len(want))
		}
		var total int64
		for id, bal := range a.bals {
			if wb, ok := want[id]; !ok || wb != bal {
				t.Fatalf("snapshot %d: account %d = %d, serial replay says %d", a.snap, id, bal, want[id])
			}
			total += bal
		}
		// Chunk atomicity, stated directly: each chunk's accounts are
		// all present or all absent, and the audited total is the seeded
		// money plus exactly the chunks at or below the snapshot.
		chunksIn := int64(0)
		for ci, cv := range vids {
			present := 0
			for r := 0; r < chunkRows; r++ {
				if _, ok := a.bals[ingestBase+int64(ci*chunkRows+r)]; ok {
					present++
				}
			}
			switch {
			case present == 0 && cv > a.snap:
			case present == chunkRows && cv <= a.snap:
				chunksIn++
			default:
				t.Fatalf("snapshot %d: chunk %d (vid %d) torn: %d/%d accounts visible", a.snap, ci, cv, present, chunkRows)
			}
		}
		if wantTotal := int64(oracleAccounts)*oracleInitBal + chunksIn*chunkRows*chunkBal; total != wantTotal {
			t.Fatalf("snapshot %d: total %d, want %d (%d chunks in)", a.snap, total, wantTotal, chunksIn)
		}
	}
	if len(vids) != chunkCount {
		t.Fatalf("only %d/%d chunks acked", len(vids), chunkCount)
	}
	if final.snap < vids[len(vids)-1] {
		t.Fatalf("final audit snapshot %d below last chunk VID %d", final.snap, vids[len(vids)-1])
	}
}
