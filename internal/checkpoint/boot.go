package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"batchdb/internal/crash"
	"batchdb/internal/mvcc"
	"batchdb/internal/obs"
	"batchdb/internal/oltp"
	"batchdb/internal/wal"
)

// ErrSeedMismatch reports recovery against the wrong pre-loaded data:
// the store's VID-0 fingerprint does not match the one recorded when the
// data directory was created. Replaying the log against different seed
// data would silently produce wrong state, so recovery fails loudly.
var ErrSeedMismatch = errors.New("checkpoint: seed data does not match the fingerprint recorded in the manifest")

// ErrNoValidCheckpoint reports that every manifest-listed checkpoint
// failed verification and the store holds no seed data to replay from.
var ErrNoValidCheckpoint = errors.New("checkpoint: no checkpoint passed verification; reload the seed data (VID-0 state) and re-run recovery")

// BootConfig configures a data directory.
type BootConfig struct {
	// Dir is the data directory (MANIFEST + checkpoints/ + wal/).
	Dir string
	// SegmentBytes is the WAL rotation threshold (default 16 MiB).
	SegmentBytes int64
	// Sync forces an fsync per WAL group commit.
	Sync bool
	// Inj is the crash-injection hook (nil in production).
	Inj *crash.Injector
	// Stats receives durability counters (allocated when nil).
	Stats *obs.DurabilityStats
}

// BootInfo describes what Boot did.
type BootInfo struct {
	// Fresh is true when the directory was newly initialized.
	Fresh bool
	// CheckpointVID is the restored checkpoint's VID (0 = none; replay
	// started from the seed).
	CheckpointVID uint64
	// FellBack is true when the newest checkpoint failed verification
	// and an older recovery point was used.
	FellBack bool
	// Replayed counts WAL commands re-executed.
	Replayed int
	// ReplayTime is the wall time spent replaying the WAL tail.
	ReplayTime time.Duration
	// WatermarkVID is the store's committed watermark after recovery.
	WatermarkVID uint64
}

// State is a booted data directory: the open WAL segment manager, the
// manifest, and the checkpointer. Create via Boot.
type State struct {
	dir     string
	ckptDir string
	walDir  string
	inj     *crash.Injector
	stats   *obs.DurabilityStats
	store   *mvcc.Store
	wal     *wal.Manager

	// mu guards man, lastCkptVID and walBytesAtCkpt against concurrent
	// manual and background checkpoints; Boot runs before either.
	mu             sync.Mutex
	man            Manifest
	lastCkptVID    uint64
	walBytesAtCkpt int64

	runnerStop chan struct{}
	runnerDone chan struct{}
}

// DirHasCheckpoint reports whether dir's manifest lists a checkpoint —
// when true, callers must NOT load seed data before Boot (the
// checkpoint replaces it); when false, the identical seed must be
// loaded first.
func DirHasCheckpoint(dir string) (bool, error) {
	m, err := loadManifest(dir)
	if err != nil {
		return false, err
	}
	return m != nil && len(m.Checkpoints) > 0, nil
}

// DirInitialized reports whether dir holds a manifest at all.
func DirInitialized(dir string) (bool, error) {
	m, err := loadManifest(dir)
	return m != nil, err
}

// Boot opens (or initializes) a data directory for engine e and
// installs the segmented WAL as e's command log. Call after DDL, seed
// loading (iff DirHasCheckpoint is false) and procedure registration,
// before e.Start.
//
// Existing directory: the newest checkpoint passing verification is
// restored into the (empty) store, the VID allocator repositioned at
// its VID, and only WAL records above it replayed — bounded by the WAL
// tail, not total history. A corrupt newest checkpoint falls back to
// the previous one (whose WAL suffix is retained exactly for this).
// Without any checkpoint, the loaded seed is fingerprint-checked
// against the manifest and the whole WAL replayed.
func Boot(e *oltp.Engine, cfg BootConfig) (*State, BootInfo, error) {
	st := &State{
		dir:     cfg.Dir,
		ckptDir: filepath.Join(cfg.Dir, "checkpoints"),
		walDir:  filepath.Join(cfg.Dir, "wal"),
		inj:     cfg.Inj,
		stats:   cfg.Stats,
		store:   e.Store(),
	}
	if st.stats == nil {
		st.stats = &obs.DurabilityStats{}
	}
	for _, d := range []string{cfg.Dir, st.ckptDir, st.walDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, BootInfo{}, fmt.Errorf("checkpoint: boot: %w", err)
		}
	}
	removeTemps(cfg.Dir)
	removeTemps(st.ckptDir)

	man, err := loadManifest(cfg.Dir)
	if err != nil {
		return nil, BootInfo{}, err
	}
	var info BootInfo
	if man == nil {
		// Fresh directory: record the seed fingerprint so a future
		// recovery can prove it replays against identical data.
		man = &Manifest{Version: 1, Seed: SumAt(st.store, 0)}
		if err := man.store(cfg.Dir, cfg.Inj); err != nil {
			return nil, BootInfo{}, err
		}
		info.Fresh = true
	} else {
		ckptVID, fellBack, err := st.restoreNewestValid(man)
		if err != nil {
			return nil, BootInfo{}, err
		}
		info.CheckpointVID = ckptVID
		info.FellBack = fellBack
		if fellBack {
			st.stats.RecoveryFallbacks.Inc()
		}
		start := time.Now()
		n, err := wal.ReplayDir(st.walDir, ckptVID, func(r wal.Record) error {
			return oltp.ReplayRecord(e, r)
		})
		if err != nil {
			return nil, BootInfo{}, err
		}
		info.Replayed = n
		info.ReplayTime = time.Since(start)
		st.stats.RecoveryReplayed.Add(uint64(n))
		st.stats.RecoveryNanos.Set(int64(info.ReplayTime))
	}
	st.man = *man
	st.lastCkptVID = info.CheckpointVID
	if len(man.Checkpoints) > 0 {
		st.lastCkptVID = man.Checkpoints[len(man.Checkpoints)-1].VID
	}

	info.WatermarkVID = st.store.VIDs.Watermark()
	mgr, err := wal.OpenDir(st.walDir, wal.DirOptions{
		Sync:         cfg.Sync,
		SegmentBytes: cfg.SegmentBytes,
		StartVID:     info.WatermarkVID + 1,
		Inj:          cfg.Inj,
		Stats:        st.stats,
	})
	if err != nil {
		return nil, BootInfo{}, err
	}
	st.wal = mgr
	e.SetLog(mgr)
	return st, info, nil
}

// restoreNewestValid picks the newest checkpoint that passes
// verification, restores it, and repositions the VID allocator. Corrupt
// newer checkpoints are demoted: dropped from the manifest and deleted,
// so they cannot re-enter the fallback chain (a later checkpoint must
// not truncate WAL down to a corrupt recovery point). With no usable
// checkpoint the loaded seed's fingerprint is verified instead and
// replay starts at VID 0.
func (st *State) restoreNewestValid(man *Manifest) (ckptVID uint64, fellBack bool, err error) {
	cks := man.Checkpoints
	demote := func(fromIdx int) error {
		if fromIdx >= len(cks) {
			return nil
		}
		for _, e := range cks[fromIdx:] {
			os.Remove(filepath.Join(st.ckptDir, e.File))
		}
		man.Checkpoints = append([]Entry(nil), cks[:fromIdx]...)
		return man.store(st.dir, st.inj)
	}
	for i := len(cks) - 1; i >= 0; i-- {
		path := filepath.Join(st.ckptDir, cks[i].File)
		if _, verr := Verify(path); verr != nil {
			fellBack = true
			continue
		}
		for _, t := range st.store.Tables() {
			if t.NumChains() != 0 {
				return 0, false, fmt.Errorf("checkpoint: boot: store already holds data for table %d; seed loading and checkpoint restore are mutually exclusive", t.Schema.ID)
			}
		}
		vid, _, rerr := Restore(path, st.store)
		if rerr != nil {
			return 0, false, rerr
		}
		st.store.VIDs.StartAt(vid)
		if fellBack {
			if err := demote(i + 1); err != nil {
				return 0, false, err
			}
		}
		return vid, fellBack, nil
	}
	// No usable checkpoint: replay everything from the seed, after
	// proving it is the same seed the log was written against.
	got := SumAt(st.store, 0)
	if !SumsEqual(got, man.Seed) {
		if len(cks) > 0 {
			empty := true
			for _, t := range st.store.Tables() {
				if t.NumChains() != 0 {
					empty = false
					break
				}
			}
			if empty {
				return 0, true, ErrNoValidCheckpoint
			}
		}
		return 0, fellBack, fmt.Errorf("%w: have %v, manifest records %v", ErrSeedMismatch, got, man.Seed)
	}
	if fellBack {
		if err := demote(0); err != nil {
			return 0, true, err
		}
	}
	return 0, fellBack, nil
}

// Stats returns the durability counters.
func (st *State) Stats() *obs.DurabilityStats { return st.stats }

// WAL returns the segment manager (the engine's command log).
func (st *State) WAL() *wal.Manager { return st.wal }

// removeTemps deletes leftover *.tmp files (checkpoints or manifests a
// dying process never renamed into place).
func removeTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
