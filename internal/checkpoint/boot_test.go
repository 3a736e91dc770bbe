package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"batchdb/internal/mvcc"
	"batchdb/internal/oltp"
	"batchdb/internal/wal"
)

// newKVEngine builds an engine over a kv store with put/add/get procs
// registered and seedRows rows pre-loaded (the VID-0 seed).
func newKVEngine(t *testing.T, seedRows int64) (*oltp.Engine, *mvcc.Table) {
	t.Helper()
	return newKVEngineWith(t, seedRows, oltp.Config{Workers: 2})
}

func newKVEngineWith(t *testing.T, seedRows int64, cfg oltp.Config) (*oltp.Engine, *mvcc.Table) {
	t.Helper()
	store, tbl := newKVStore()
	for i := int64(1); i <= seedRows; i++ {
		loadKV(t, tbl, i, i*100)
	}
	e, err := oltp.New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema := tbl.Schema
	e.Register("put", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		k := int64(binary.LittleEndian.Uint64(args))
		v := int64(binary.LittleEndian.Uint64(args[8:]))
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, k)
		schema.PutInt64(tup, 1, v)
		if err := tx.Insert(tbl, tup); err != nil {
			return nil, err
		}
		return nil, nil
	})
	e.Register("add", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		k := int64(binary.LittleEndian.Uint64(args))
		d := int64(binary.LittleEndian.Uint64(args[8:]))
		return nil, tx.Update(tbl, uint64(k), []int{1}, func(tup []byte) {
			schema.PutInt64(tup, 1, schema.GetInt64(tup, 1)+d)
		})
	})
	e.Register("get", func(tx *mvcc.Txn, args []byte) ([]byte, error) {
		k := int64(binary.LittleEndian.Uint64(args))
		tup, ok := tx.Get(tbl, uint64(k))
		if !ok {
			return nil, mvcc.ErrNotFound
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(schema.GetInt64(tup, 1)))
		return out, nil
	})
	return e, tbl
}

func kvArgs(k, v int64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, uint64(k))
	binary.LittleEndian.PutUint64(b[8:], uint64(v))
	return b
}

func mustExec(t *testing.T, e *oltp.Engine, proc string, args []byte) uint64 {
	t.Helper()
	r := e.Exec(proc, args)
	if r.Err != nil {
		t.Fatalf("%s: %v", proc, r.Err)
	}
	return r.CommitVID
}

const bootSeedRows = 10

func TestBootFreshThenRecoverFromSeed(t *testing.T) {
	dir := t.TempDir()
	e1, _ := newKVEngine(t, bootSeedRows)
	st1, info, err := Boot(e1, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Fresh {
		t.Fatal("first boot not Fresh")
	}
	e1.Start()
	const writes = 30
	for i := int64(0); i < writes; i++ {
		mustExec(t, e1, "put", kvArgs(100+i, i))
	}
	mustExec(t, e1, "add", kvArgs(100, 5))
	wantSums := SumAt(e1.Store(), uint64(writes+1))
	st1.StopRunner()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// No checkpoint was taken, so recovery needs the identical seed.
	has, err := DirHasCheckpoint(dir)
	if err != nil || has {
		t.Fatalf("DirHasCheckpoint = %v, %v", has, err)
	}
	e2, _ := newKVEngine(t, bootSeedRows)
	st2, info2, err := Boot(e2, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.StopRunner()
	defer e2.Close()
	if info2.Fresh || info2.CheckpointVID != 0 {
		t.Fatalf("info2 = %+v", info2)
	}
	if info2.Replayed != writes+1 {
		t.Fatalf("replayed %d, want %d", info2.Replayed, writes+1)
	}
	if info2.WatermarkVID != uint64(writes+1) {
		t.Fatalf("watermark = %d", info2.WatermarkVID)
	}
	if !SumsEqual(SumAt(e2.Store(), info2.WatermarkVID), wantSums) {
		t.Fatal("recovered state differs from original")
	}

	// The recovered engine must keep working and log at fresh VIDs.
	e2.Start()
	if vid := mustExec(t, e2, "put", kvArgs(999, 1)); vid != uint64(writes+2) {
		t.Fatalf("post-recovery commit VID = %d, want %d", vid, writes+2)
	}
}

func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	e1, _ := newKVEngine(t, bootSeedRows)
	st1, _, err := Boot(e1, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e1.Start()
	const before, after = 40, 7
	for i := int64(0); i < before; i++ {
		mustExec(t, e1, "put", kvArgs(1000+i, i))
	}
	info, err := st1.Checkpoint(e1)
	if err != nil {
		t.Fatal(err)
	}
	if info.VID != before {
		t.Fatalf("checkpoint vid = %d, want %d", info.VID, before)
	}
	for i := int64(0); i < after; i++ {
		mustExec(t, e1, "add", kvArgs(1000+i, 1))
	}
	wantSums := SumAt(e1.Store(), before+after)
	st1.StopRunner()
	e1.Close()

	// A checkpoint exists: recovery must run WITHOUT the seed and replay
	// only the tail above the checkpoint.
	has, err := DirHasCheckpoint(dir)
	if err != nil || !has {
		t.Fatalf("DirHasCheckpoint = %v, %v", has, err)
	}
	e2, _ := newKVEngine(t, 0) // empty store
	st2, info2, err := Boot(e2, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.StopRunner()
	defer e2.Close()
	if info2.CheckpointVID != before || info2.FellBack {
		t.Fatalf("info2 = %+v", info2)
	}
	if info2.Replayed != after {
		t.Fatalf("replayed %d, want the WAL tail %d", info2.Replayed, after)
	}
	if info2.WatermarkVID != before+after {
		t.Fatalf("watermark = %d", info2.WatermarkVID)
	}
	if !SumsEqual(SumAt(e2.Store(), before+after), wantSums) {
		t.Fatal("recovered state differs from original")
	}
}

// Satellite: recovery against the wrong seed data must fail loudly, not
// silently replay into wrong state.
func TestSeedMismatchFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	e1, _ := newKVEngine(t, bootSeedRows)
	st1, _, err := Boot(e1, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e1.Start()
	mustExec(t, e1, "put", kvArgs(100, 1))
	st1.StopRunner()
	e1.Close()

	e2, _ := newKVEngine(t, bootSeedRows+3) // different seed
	if _, _, err := Boot(e2, BootConfig{Dir: dir}); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("Boot with wrong seed: %v, want ErrSeedMismatch", err)
	}
	e2.Close()

	// Loading the store through a checkpoint restore path while a seed is
	// present must also be refused (the two are mutually exclusive).
	e3, _ := newKVEngine(t, bootSeedRows)
	st3, info, err := Boot(e3, BootConfig{Dir: dir})
	if err != nil {
		t.Fatalf("correct seed rejected: %v", err)
	}
	if info.Replayed != 1 {
		t.Fatalf("replayed = %d", info.Replayed)
	}
	st3.StopRunner()
	e3.Close()
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Satellite: a corrupt newest checkpoint must fall back to the previous
// one, at the price of a longer WAL replay — and must be demoted so it
// cannot poison later recoveries or WAL truncation.
func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	e1, _ := newKVEngine(t, bootSeedRows)
	st1, _, err := Boot(e1, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e1.Start()
	const n1, n2, n3 = 10, 10, 5
	for i := int64(0); i < n1; i++ {
		mustExec(t, e1, "put", kvArgs(100+i, i))
	}
	if _, err := st1.Checkpoint(e1); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n2; i++ {
		mustExec(t, e1, "add", kvArgs(100+i, 1))
	}
	ck2, err := st1.Checkpoint(e1)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n3; i++ {
		mustExec(t, e1, "add", kvArgs(100+i, 2))
	}
	final := uint64(n1 + n2 + n3)
	wantSums := SumAt(e1.Store(), final)
	st1.StopRunner()
	e1.Close()

	corruptFile(t, ck2.Path)

	e2, _ := newKVEngine(t, 0)
	st2, info2, err := Boot(e2, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.FellBack {
		t.Fatal("recovery did not report the fallback")
	}
	if info2.CheckpointVID != n1 {
		t.Fatalf("fell back to vid %d, want %d", info2.CheckpointVID, n1)
	}
	// The fallback pays with a longer replay: everything above the OLDER
	// checkpoint.
	if info2.Replayed != n2+n3 {
		t.Fatalf("replayed %d, want %d", info2.Replayed, n2+n3)
	}
	if !SumsEqual(SumAt(e2.Store(), final), wantSums) {
		t.Fatal("fallback recovery produced wrong state")
	}
	if st2.Stats().RecoveryFallbacks.Load() != 1 {
		t.Fatal("RecoveryFallbacks not counted")
	}
	// Demotion: the corrupt file is gone and the manifest no longer
	// lists it, so the next recovery is clean.
	if _, err := os.Stat(ck2.Path); !os.IsNotExist(err) {
		t.Fatalf("corrupt checkpoint not deleted: %v", err)
	}
	st2.StopRunner()
	e2.Close()

	e3, _ := newKVEngine(t, 0)
	st3, info3, err := Boot(e3, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.StopRunner()
	defer e3.Close()
	if info3.FellBack || info3.CheckpointVID != n1 {
		t.Fatalf("after demotion: %+v", info3)
	}
	if !SumsEqual(SumAt(e3.Store(), final), wantSums) {
		t.Fatal("post-demotion recovery wrong")
	}
}

// With every checkpoint corrupt, recovery falls back all the way to the
// seed — possible exactly because the WAL was never truncated past the
// point a surviving checkpoint covers.
func TestAllCheckpointsCorruptFallsBackToSeed(t *testing.T) {
	dir := t.TempDir()
	e1, _ := newKVEngine(t, bootSeedRows)
	st1, _, err := Boot(e1, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e1.Start()
	const writes = 12
	for i := int64(0); i < writes; i++ {
		mustExec(t, e1, "put", kvArgs(100+i, i))
	}
	ck, err := st1.Checkpoint(e1)
	if err != nil {
		t.Fatal(err)
	}
	wantSums := SumAt(e1.Store(), writes)
	st1.StopRunner()
	e1.Close()
	corruptFile(t, ck.Path)

	// Without the seed: nothing to recover from — loud error, not empty
	// state.
	eBad, _ := newKVEngine(t, 0)
	if _, _, err := Boot(eBad, BootConfig{Dir: dir}); !errors.Is(err, ErrNoValidCheckpoint) {
		t.Fatalf("bootless recovery: %v, want ErrNoValidCheckpoint", err)
	}
	eBad.Close()

	// With the seed loaded, the full log replays.
	e2, _ := newKVEngine(t, bootSeedRows)
	st2, info2, err := Boot(e2, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.StopRunner()
	defer e2.Close()
	if !info2.FellBack || info2.CheckpointVID != 0 {
		t.Fatalf("info2 = %+v", info2)
	}
	if info2.Replayed != writes {
		t.Fatalf("replayed %d, want %d", info2.Replayed, writes)
	}
	if !SumsEqual(SumAt(e2.Store(), writes), wantSums) {
		t.Fatal("seed-fallback recovery wrong")
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	e1, _ := newKVEngine(t, bootSeedRows)
	// Tiny segments so every few commits rotate.
	st1, _, err := Boot(e1, BootConfig{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	e1.Start()
	defer e1.Close()
	defer st1.StopRunner()

	ckpts := 0
	for round := 0; round < 4; round++ {
		for i := int64(0); i < 25; i++ {
			mustExec(t, e1, "put", kvArgs(int64(round)*100+200+i, i))
		}
		if _, err := st1.Checkpoint(e1); err != nil {
			t.Fatal(err)
		}
		ckpts++
	}
	if got := st1.Stats().Checkpoints.Load(); got != uint64(ckpts) {
		t.Fatalf("Checkpoints counter = %d, want %d", got, ckpts)
	}
	if st1.Stats().SegmentsTruncated.Load() == 0 {
		t.Fatal("no WAL segments were truncated despite multiple checkpoints")
	}
	// Only 2 checkpoints are kept...
	ents, err := os.ReadDir(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		names := []string{}
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("checkpoint files on disk = %v, want 2", names)
	}
	// ...and every surviving WAL segment starts above the oldest kept
	// checkpoint's cover (its successor-based removal rule means the
	// FIRST remaining segment may still start below, but the second must
	// not be fully covered).
	m, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Checkpoints) != 2 {
		t.Fatalf("manifest lists %d checkpoints", len(m.Checkpoints))
	}
	oldest := m.Checkpoints[0].VID
	n, err := wal.ReplayDir(filepath.Join(dir, "wal"), oldest, func(wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if wantTail := int(e1.LatestVID() - oldest); n != wantTail {
		t.Fatalf("WAL tail above oldest kept checkpoint = %d records, want %d", n, wantTail)
	}
}

func TestBackgroundRunnerCheckpoints(t *testing.T) {
	dir := t.TempDir()
	e1, _ := newKVEngine(t, bootSeedRows)
	st1, _, err := Boot(e1, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e1.Start()
	defer e1.Close()
	defer st1.StopRunner()
	st1.StartRunner(e1, Policy{EveryVIDs: 10, Poll: 5 * time.Millisecond})

	for i := int64(0); i < 30; i++ {
		mustExec(t, e1, "put", kvArgs(100+i, i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for st1.Stats().Checkpoints.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background runner never checkpointed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st1.StopRunner()
	if vid := st1.Stats().LastCheckpointVID.Load(); vid < 10 || vid > 30 {
		t.Fatalf("LastCheckpointVID = %d", vid)
	}
}

func TestManualCheckpointNoProgress(t *testing.T) {
	dir := t.TempDir()
	e1, _ := newKVEngine(t, bootSeedRows)
	st1, _, err := Boot(e1, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e1.Start()
	defer e1.Close()
	defer st1.StopRunner()
	mustExec(t, e1, "put", kvArgs(100, 1))
	if _, err := st1.Checkpoint(e1); err != nil {
		t.Fatal(err)
	}
	if _, err := st1.Checkpoint(e1); !errors.Is(err, ErrNoProgress) {
		t.Fatalf("idle checkpoint: %v, want ErrNoProgress", err)
	}
}

// cutThenRun is a Coordinator under which the engine gets a turn between
// handing out the cut and the checkpointer's scan registering at it.
type cutThenRun struct {
	e   *oltp.Engine
	run func(cut uint64)
}

func (c cutThenRun) Err() error { return c.e.Err() }

func (c cutThenRun) CheckpointVID() uint64 {
	w := c.e.CheckpointVID()
	c.run(w)
	return w
}

// The checkpoint is a scan at the cut, but the scan starts after the cut
// is taken. Transactions that commit in between, and the garbage
// collection that follows them, must not take away what the cut sees.
func TestCheckpointSurvivesGCAfterCut(t *testing.T) {
	dir := t.TempDir()
	e, _ := newKVEngineWith(t, bootSeedRows, oltp.Config{Workers: 2, GCEveryTxns: 1})
	st, _, err := Boot(e, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.StopRunner()
	e.Start()
	defer e.Close()
	mustExec(t, e, "add", kvArgs(1, 1))

	var cut uint64
	var want []TableSum
	info, err := st.Checkpoint(cutThenRun{e, func(w uint64) {
		cut, want = w, SumAt(e.Store(), w)
		// Supersede a row the cut sees. A worker collects after handing
		// its batch back, so the second call returns only once the first
		// one's collection is done.
		mustExec(t, e, "add", kvArgs(1, 1))
		mustExec(t, e, "add", kvArgs(2, 1))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if info.VID != cut || info.Rows != bootSeedRows {
		t.Fatalf("checkpoint at %d holds %d rows; the cut was %d with %d rows", info.VID, info.Rows, cut, bootSeedRows)
	}
	rec, _ := newKVStore()
	if _, _, err := Restore(info.Path, rec); err != nil {
		t.Fatal(err)
	}
	if !SumsEqual(SumAt(rec, 0), want) {
		t.Fatal("the checkpoint differs from the state at its cut")
	}
}

// lossyLog is the engine's WAL losing whole batches: while fail is set,
// Append drops the records and Commit fails, as a short write does.
type lossyLog struct {
	*wal.Manager
	fail atomic.Bool
}

func (l *lossyLog) Append(r wal.Record) error {
	if l.fail.Load() {
		return nil
	}
	return l.Manager.Append(r)
}

func (l *lossyLog) Commit() error {
	if l.fail.Load() {
		return errors.New("short write")
	}
	return l.Manager.Commit()
}

// dirFiles lists every file under dir by its relative path.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			files = append(files, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// Once a group commit failed, the batch it lost is still in the store and
// under the watermark, though its client was told it is not durable. A
// checkpoint then writes no file, truncates no WAL and answers with the
// engine's ErrNotDurable; recovery restores exactly the acknowledged
// commits.
func TestNoCheckpointAfterLogFailure(t *testing.T) {
	dir := t.TempDir()
	e1, _ := newKVEngine(t, bootSeedRows)
	st1, _, err := Boot(e1, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	log := &lossyLog{Manager: st1.WAL()}
	e1.SetLog(log)
	e1.Start()
	// Two checkpoints, so a third would truncate the WAL below the first.
	for i := int64(1); i <= 2; i++ {
		mustExec(t, e1, "put", kvArgs(100+i, i))
		if _, err := st1.Checkpoint(e1); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e1, "put", kvArgs(103, 3))
	want := SumAt(e1.Store(), 3)
	log.fail.Store(true)
	if r := e1.Exec("put", kvArgs(104, 4)); !errors.Is(r.Err, oltp.ErrNotDurable) {
		t.Fatalf("put in the lost batch: %v, want ErrNotDurable", r.Err)
	}
	before := dirFiles(t, dir)
	if info, err := st1.Checkpoint(e1); !errors.Is(err, oltp.ErrNotDurable) {
		t.Fatalf("checkpoint after the failed log write: %+v, %v; want ErrNotDurable", info, err)
	}
	if after := dirFiles(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("the refused checkpoint changed the data directory: %v → %v", before, after)
	}
	st1.StopRunner()
	e1.Close()

	e2, _ := newKVEngine(t, 0)
	st2, info2, err := Boot(e2, BootConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.StopRunner()
	defer e2.Close()
	if info2.CheckpointVID != 2 || info2.WatermarkVID != 3 {
		t.Fatalf("recovered from checkpoint %d to VID %d, want 2 and 3", info2.CheckpointVID, info2.WatermarkVID)
	}
	if !SumsEqual(SumAt(e2.Store(), 3), want) {
		t.Fatal("recovered state differs from the acknowledged commits")
	}
}
