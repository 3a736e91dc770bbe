package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"batchdb/internal/oltp"
)

// Coordinator yields consistent cut points; implemented by oltp.Engine.
// Err is the engine's failed group commit (wrapping oltp.ErrNotDurable),
// or nil while the log holds every acknowledged commit.
type Coordinator interface {
	CheckpointVID() uint64
	Err() error
}

// Policy says when the background checkpointer fires.
type Policy struct {
	// EveryVIDs checkpoints once this many commits accumulated since
	// the last checkpoint (0 disables the trigger).
	EveryVIDs uint64
	// EveryWALBytes checkpoints once this many WAL bytes accumulated
	// since the last checkpoint (0 disables the trigger).
	EveryWALBytes int64
	// Poll is how often triggers are evaluated (default 200 ms).
	Poll time.Duration
}

// keepCheckpoints is how many checkpoints are retained: the newest plus
// its fallback. WAL is only truncated below the oldest kept.
const keepCheckpoints = 2

// ErrNoProgress reports a manual checkpoint request with no commits
// since the previous checkpoint.
var ErrNoProgress = errors.New("checkpoint: no commits since the last checkpoint")

// StartRunner launches the background checkpointer: every Poll it
// checks the policy triggers and, when due, takes a checkpoint through
// coord's batch-boundary rendezvous. The MVCC snapshot scan runs
// concurrently with OLTP — only the VID capture itself briefly visits
// the dispatcher. Once the engine has stopped on a failed log write the
// runner stops too: no later checkpoint can be taken.
func (st *State) StartRunner(coord Coordinator, pol Policy) {
	if pol.Poll <= 0 {
		pol.Poll = 200 * time.Millisecond
	}
	st.runnerStop = make(chan struct{})
	st.runnerDone = make(chan struct{})
	go func() {
		defer close(st.runnerDone)
		t := time.NewTicker(pol.Poll)
		defer t.Stop()
		for {
			select {
			case <-st.runnerStop:
				return
			case <-t.C:
				if st.inj.Crashed() {
					return // the simulated process is dead
				}
				if !st.due(pol) {
					continue
				}
				_, err := st.Checkpoint(coord)
				if err != nil && !errors.Is(err, ErrNoProgress) {
					st.stats.CheckpointFailures.Inc()
				}
				if errors.Is(err, oltp.ErrNotDurable) {
					return
				}
			}
		}
	}()
}

// StopRunner stops the background checkpointer (idempotent).
func (st *State) StopRunner() {
	if st.runnerStop == nil {
		return
	}
	select {
	case <-st.runnerStop:
	default:
		close(st.runnerStop)
	}
	<-st.runnerDone
}

func (st *State) due(pol Policy) bool {
	st.mu.Lock()
	last, baseline := st.lastCkptVID, st.walBytesAtCkpt
	st.mu.Unlock()
	if pol.EveryVIDs > 0 && st.store.VIDs.Watermark()-last >= pol.EveryVIDs {
		return true
	}
	if pol.EveryWALBytes > 0 && st.wal.Appended()-baseline >= pol.EveryWALBytes {
		return true
	}
	return false
}

// Checkpoint takes a checkpoint now: capture a batch-boundary VID,
// write the snapshot file, publish it in the manifest, prune old
// checkpoint files, and truncate WAL segments below the oldest kept
// checkpoint (so a corrupt-newest fallback still finds its WAL suffix).
// After a failed group commit it does none of that and returns the
// engine's error, which wraps oltp.ErrNotDurable.
func (st *State) Checkpoint(coord Coordinator) (Info, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	// Register a snapshot before asking for the cut: the engine keeps
	// committing — and its workers keep collecting garbage — between the
	// cut and the moment Write's scan registers at it. Every version the
	// cut can see is visible at or after this older snapshot, so none is
	// reclaimed in that window.
	pin := st.store.BeginRO()
	defer pin.Release()
	w := coord.CheckpointVID()
	// The batch whose log write failed stays in the store and under the
	// watermark: a checkpoint would make durable what its clients were
	// told is not, and truncate the WAL behind it. The cut is handed out
	// after that batch ran, so Err already reports it here.
	if err := coord.Err(); err != nil {
		return Info{}, fmt.Errorf("checkpoint: %w", err)
	}
	if w <= st.lastCkptVID {
		return Info{VID: st.lastCkptVID}, ErrNoProgress
	}
	info, err := Write(st.ckptDir, st.store, w, st.inj)
	if err != nil {
		return Info{}, fmt.Errorf("checkpoint: write: %w", err)
	}
	man := st.man
	man.Checkpoints = append(append([]Entry(nil), st.man.Checkpoints...), Entry{
		VID: w, File: filepath.Base(info.Path), Bytes: info.Bytes,
	})
	if len(man.Checkpoints) > keepCheckpoints {
		man.Checkpoints = man.Checkpoints[len(man.Checkpoints)-keepCheckpoints:]
	}
	if err := man.store(st.dir, st.inj); err != nil {
		// The file exists but is unreferenced; the old manifest stays
		// authoritative and the orphan is pruned by a later success.
		return Info{}, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	st.man = man
	st.pruneCheckpointFiles()
	// WAL below the oldest kept checkpoint is unreachable by any
	// recovery (even a fallback) and can go.
	cover := man.Checkpoints[0].VID
	if len(man.Checkpoints) < 2 {
		// A single checkpoint has no fallback; keep the full WAL so
		// seed-based recovery remains possible if it corrupts.
		cover = 0
	}
	if err := st.wal.TruncateTo(cover); err != nil {
		return Info{}, fmt.Errorf("checkpoint: truncate wal: %w", err)
	}
	st.lastCkptVID = w
	st.walBytesAtCkpt = st.wal.Appended()
	st.stats.Checkpoints.Inc()
	st.stats.LastCheckpointVID.Set(int64(w))
	st.stats.LastCheckpointNanos.Set(int64(info.Elapsed))
	st.stats.LastCheckpointBytes.Set(info.Bytes)
	st.stats.LastCheckpointUnixNanos.Set(time.Now().UnixNano())
	return info, nil
}

// pruneCheckpointFiles removes checkpoint files the manifest no longer
// references.
func (st *State) pruneCheckpointFiles() {
	keep := make(map[string]bool, len(st.man.Checkpoints))
	for _, e := range st.man.Checkpoints {
		keep[e.File] = true
	}
	ents, err := os.ReadDir(st.ckptDir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".ck") && !keep[name] {
			os.Remove(filepath.Join(st.ckptDir, name))
		}
	}
}
