package olap

import "batchdb/internal/storage"

// Snapshot is a pinned reader's handle on the replica: the replica's one
// version, held still at the VID it had when the pin was taken. There is
// no copy behind it — Table and Tables return the canonical tables —
// because no apply round writes while any pin is held (ApplyPending waits
// for the last Unpin, and PinSnapshot waits for a running round).
type Snapshot struct {
	r   *Replica
	vid uint64
}

// VID returns the snapshot's commit watermark: every update with
// VID <= VID() is reflected, none above it.
func (s *Snapshot) VID() uint64 { return s.vid }

// Table returns the table with the given ID, or nil.
func (s *Snapshot) Table(id storage.TableID) *Table { return s.r.tables[id] }

// Tables returns the tables in creation order.
func (s *Snapshot) Tables() []*Table { return s.r.order }

// Unpin releases the snapshot; the last Unpin lets a waiting apply round
// start. Each PinSnapshot must be matched by exactly one Unpin.
func (s *Snapshot) Unpin() {
	r := s.r
	r.snapMu.Lock()
	if r.pins--; r.pins == 0 {
		r.snapCond.Broadcast()
	}
	r.snapMu.Unlock()
}

// PinSnapshot holds the replica still for a reader and returns the handle
// it reads through; it waits while an apply round runs. Pins may nest and
// overlap, but a pin must not be held across a Query or a direct
// ApplyPending: the apply round either call waits for would wait for
// that pin to drop.
func (r *Replica) PinSnapshot() *Snapshot {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	for r.applying {
		r.snapCond.Wait()
	}
	r.pins++
	return &Snapshot{r: r, vid: r.AppliedVID()}
}

// beginRound waits until no reader holds a pin and keeps new pins out
// until endRound.
func (r *Replica) beginRound() {
	r.snapMu.Lock()
	if r.pins > 0 {
		r.roundsWaiting++
		for r.pins > 0 {
			r.snapCond.Wait()
		}
		r.roundsWaiting--
	}
	r.applying = true
	r.snapMu.Unlock()
}

func (r *Replica) endRound() {
	r.snapMu.Lock()
	r.applying = false
	r.snapCond.Broadcast()
	r.snapMu.Unlock()
}

// SetOnPush registers fn to run after every update push or staged
// reload arrives (outside the replica's locks). The scheduler uses it
// to kick an apply round as soon as new updates exist, which is
// what shrinks staleness below the batch period. Safe to call while a
// live feed is already pushing (fleet nodes start their supervisor
// before the scheduler).
func (r *Replica) SetOnPush(fn func()) {
	r.mu.Lock()
	r.onPush = fn
	r.mu.Unlock()
}

// PinnedSnapshots returns the number of outstanding pins.
func (r *Replica) PinnedSnapshots() int {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	return r.pins
}
