package olap

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
