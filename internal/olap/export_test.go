package olap

// ApplyPendingDeferred is applyPending for the external test package:
// a round that re-encodes stale blocks only when told to, as the
// scheduler's rounds do.
func (r *Replica) ApplyPendingDeferred(target uint64, reencode bool) (ApplyStats, error) {
	return r.applyPending(target, reencode)
}

// CauseBarrier and CausePush index SchedulerStats.ApplyRounds at the
// freshness-barrier rounds and the push-kicked rounds.
const (
	CauseBarrier = causeBarrier
	CausePush    = causePush
)

// RoundsWaitingOnPins reports how many apply rounds are blocked until
// the outstanding snapshot pins drop.
func (r *Replica) RoundsWaitingOnPins() int {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	return r.roundsWaiting
}
