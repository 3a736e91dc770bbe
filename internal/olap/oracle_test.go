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

// The oracle runs three times: with one audit session, which the
// scheduler never paces; with three, whose batches form on the heartbeat
// and share one barrier round each; and with one session and a 2 ms push
// period, so that pushes land while audits run and their rounds wait for
// the audit to unpin. Either way an audit must equal the serial replay
// at its snapshot, and its snapshot must cover every commit acknowledged
// before the audit was submitted. Writers run past their quota until the
// case is not vacuous — the audits saw two snapshots and, with the short
// push period, a push round ran — or a deadline passes, which fails the
// checks below; no case depends on the host's timing to exercise itself.
func TestSnapshotIsolationOracle(t *testing.T) {
	t.Run("lone", func(t *testing.T) { snapshotIsolationOracle(t, 1, 0, 5*time.Millisecond) })
	t.Run("paced", func(t *testing.T) { snapshotIsolationOracle(t, 3, 4*time.Millisecond, 5*time.Millisecond) })
	t.Run("push", func(t *testing.T) { snapshotIsolationOracle(t, 1, 0, 2*time.Millisecond) })
}

// newBank returns an OLTP engine with the seed and transfer procedures
// over a fresh account table, and a replica it pushes to. Nothing is
// started.
func newBank(t *testing.T, pushPeriod time.Duration, capacity int) (*oltp.Engine, *olap.Replica, *storage.Schema) {
	schema := accountSchema()
	store := mvcc.NewStore()
	tbl := store.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, capacity)

	engine, err := oltp.New(store, oltp.Config{Workers: 4, PushPeriod: pushPeriod})
	if err != nil {
		t.Fatal(err)
	}
	engine.Register("seed", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		id := int64(binary.LittleEndian.Uint64(args))
		bal := int64(binary.LittleEndian.Uint64(args[8:]))
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, id)
		schema.PutInt64(tup, 1, bal)
		err := tx.Insert(tbl, tup)
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
	return engine, rep, schema
}

// seedAccounts commits the initial accounts through the transactional
// path, so the oracle's serial replay covers the whole history from an
// empty database, and returns their ops.
func seedAccounts(t *testing.T, engine *oltp.Engine) []op {
	var ops []op
	for id := int64(1); id <= oracleAccounts; id++ {
		r := engine.Exec("seed", transferArgs(id, oracleInitBal, 0))
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		ops = append(ops, op{vid: r.CommitVID, insert: true, from: id, amt: oracleInitBal})
	}
	return ops
}

// auditRun is the analytical query: pin the replica, scan its account
// table and return the complete balance map it exposes. Reading under a
// pin — which holds off any apply round a direct caller starts meanwhile
// — is part of the contract under test; the audit reports the pinned
// VID, which may run ahead of the scheduler's floor.
func auditRun(rep *olap.Replica, schema *storage.Schema) olap.RunBatchFunc[int, audit] {
	return func(queries []int, snap uint64) []audit {
		sv := rep.PinSnapshot()
		defer sv.Unpin()
		a := audit{snap: max(sv.VID(), snap), bals: scanBalances(schema, sv)}
		out := make([]audit, len(queries))
		for i := range out {
			out[i] = a
		}
		return out
	}
}

// checkReplay fails unless bals is exactly the serial replay of history
// at snap.
func checkReplay(t *testing.T, history []op, snap uint64, bals map[int64]int64) {
	t.Helper()
	want := replaySerial(history, snap)
	if len(bals) != len(want) {
		t.Fatalf("snapshot %d: audit saw %d accounts, serial replay has %d", snap, len(bals), len(want))
	}
	for id, bal := range bals {
		if wb, ok := want[id]; !ok || wb != bal {
			t.Fatalf("snapshot %d: account %d = %d, serial replay says %d", snap, id, bal, want[id])
		}
	}
}

func snapshotIsolationOracle(t *testing.T, sessions int, txnPause, pushPeriod time.Duration) {
	engine, rep, schema := newBank(t, pushPeriod, 1024)
	sched := olap.NewScheduler(rep, engine, auditRun(rep, schema))

	engine.Start()
	defer engine.Close()
	sched.Start()
	defer sched.Close()

	var logMu sync.Mutex
	var acked atomic.Uint64 // highest commit VID a client has been told of
	committed := seedAccounts(t, engine)

	const (
		writers        = 4
		txnsPerWriter  = 150
		auditInterval  = 2 * time.Millisecond
		conflictBudget = 100
		exerciseBudget = time.Minute
	)
	// varied is set once an audit saw a snapshot other than the first
	// audit's.
	var varied atomic.Bool
	exercised := func() bool {
		return varied.Load() && (pushPeriod > auditInterval || sched.Stats().ApplyRounds[olap.CausePush].Load() > 0)
	}
	deadline := time.Now().Add(exerciseBudget)
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < txnsPerWriter || !exercised() && time.Now().Before(deadline); i++ {
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

	// Concurrent audits: each reads the version the last apply round left
	// while transfers race with the apply windows.
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
				if len(audits) > 0 && a.snap != audits[0].snap {
					varied.Store(true)
				}
				audits = append(audits, a)
				auditMu.Unlock()
				time.Sleep(auditInterval)
			}
		}()
	}

	wg.Wait()
	close(stopAudits)
	auditWG.Wait()
	if barrier, batches := sched.Stats().ApplyRounds[olap.CauseBarrier].Load(), sched.Stats().Batches.Load(); barrier != batches {
		t.Fatalf("%d barrier rounds for %d batches, want one each", barrier, batches)
	}
	if push := sched.Stats().ApplyRounds[olap.CausePush].Load(); pushPeriod <= auditInterval && push == 0 {
		t.Fatalf("push period %v, no push-kicked round: the case is vacuous", pushPeriod)
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
		checkReplay(t, history, a.snap, a.bals)
		var total int64
		for _, bal := range a.bals {
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
	slots := make([]int32, 64)
	for _, p := range sv.Table(1).Partitions {
		for next := 0; next < p.Slots(); {
			var n int
			n, next = p.LiveSlots(p.Slots(), next, slots)
			for _, slot := range slots[:n] {
				tup := p.Tuple(slot)
				bals[schema.GetInt64(tup, 0)] = schema.GetInt64(tup, 1)
			}
		}
	}
	return bals
}

// TestConcurrentPinnedSnapshots lands push-kicked apply rounds on a pin
// held by a direct reader, as a PinSnapshot/RunBatch caller outside the
// scheduler holds one. After each batch the test pins the replica, scans,
// waits until the primary has pushed past the pinned VID and a push round
// has started, gives that round time to apply, and scans again. The round
// must wait for the Unpin: the replica's VID does not move under the pin,
// and both scans equal the serial replay of the committed prefix at the
// pinned VID. It must apply once the reader unpins — no query follows to
// start a barrier round, so only a push round can — and leave no pin
// behind.
func TestConcurrentPinnedSnapshots(t *testing.T) {
	engine, rep, schema := newBank(t, 2*time.Millisecond, 1024)
	sched := olap.NewScheduler(rep, engine, auditRun(rep, schema))
	engine.Start()
	defer engine.Close()
	sched.Start()
	defer sched.Close()

	var logMu sync.Mutex
	committed := seedAccounts(t, engine)
	// Background writers keep the primary pushing for the whole test.
	const writers = 2
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
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

	type hold struct {
		vid           uint64
		first, second map[int64]int64
	}
	var holds []hold
	for i := 0; i < 3; i++ {
		if _, err := sched.Query(0); err != nil {
			t.Fatal(err)
		}
		sv := rep.PinSnapshot()
		h := hold{vid: sv.VID(), first: scanBalances(schema, sv)}
		// The scheduler's loop is idle between batches, so the writers'
		// pushes kick push rounds; wait for one to block on the pin,
		// watching that no round applies meanwhile.
		for deadline := time.Now().Add(5 * time.Second); rep.RoundsWaitingOnPins() == 0; time.Sleep(100 * time.Microsecond) {
			if got := rep.AppliedVID(); got != h.vid {
				break // reported below
			}
			if time.Now().After(deadline) {
				t.Errorf("pinned at VID %d: no push round waited on the pin within 5 s", h.vid)
				break
			}
		}
		if got := rep.AppliedVID(); got != h.vid {
			t.Errorf("a push round applied up to VID %d under a pin at VID %d", got, h.vid)
		}
		if n := rep.PinnedSnapshots(); n != 1 {
			t.Errorf("PinnedSnapshots = %d under one pin", n)
		}
		h.second = scanBalances(schema, sv)
		holds = append(holds, h)
		sv.Unpin()
		if n := rep.PinnedSnapshots(); n != 0 {
			t.Fatalf("PinnedSnapshots = %d after the Unpin", n)
		}
		for deadline := time.Now().Add(5 * time.Second); rep.AppliedVID() <= h.vid; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the push round waiting on the pin at VID %d never applied after the Unpin", h.vid)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	logMu.Lock()
	history := append([]op(nil), committed...)
	logMu.Unlock()
	sortOps(history)
	for _, h := range holds {
		checkReplay(t, history, h.vid, h.first)
		checkReplay(t, history, h.vid, h.second)
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
	engine, rep, schema := newBank(t, 5*time.Millisecond, 4096)
	ingest.RegisterProc(engine)
	sched := olap.NewScheduler(rep, engine, auditRun(rep, schema))

	engine.Start()
	defer engine.Close()
	sched.Start()
	defer sched.Close()

	var logMu sync.Mutex
	committed := seedAccounts(t, engine)

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
			Governor:        ingest.GovernorConfig{MaxRate: 300}, // paced, ungoverned
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
		checkReplay(t, history, a.snap, a.bals)
		var total int64
		for _, bal := range a.bals {
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
