package oltp

import (
	"fmt"

	"batchdb/internal/wal"
)

// ReplayRecord re-executes one logged command against e's store using
// e's registered procedures. Replay is deterministic because (a) the
// command re-executes at its logged ReadVID, observing exactly the rows
// the original execution saw, and (b) committed VIDs are dense, so
// re-committing in log order reassigns identical commit VIDs — which is
// asserted. This is VoltDB-style command-log recovery adapted to
// snapshot isolation (paper §4 "Logging": read and committed snapshot
// versions are logged for correct recovery). Exported for the data-dir
// boot path, which replays only the WAL tail above a checkpoint.
func ReplayRecord(e *Engine, r wal.Record) error {
	proc, ok := e.procs[r.Proc]
	if !ok {
		return fmt.Errorf("%w: %q (during recovery)", ErrUnknownProc, r.Proc)
	}
	tx := e.store.BeginAt(r.ReadVID)
	if _, err := proc(tx, r.Args); err != nil {
		tx.Abort()
		return fmt.Errorf("oltp: recovery replay of %q (vid %d) failed: %v", r.Proc, r.CommitVID, err)
	}
	cv, err := tx.Commit()
	if err != nil {
		return fmt.Errorf("oltp: recovery commit: %v", err)
	}
	if cv != r.CommitVID {
		return fmt.Errorf("oltp: recovery VID divergence: replayed %q got vid %d, log says %d", r.Proc, cv, r.CommitVID)
	}
	return nil
}
