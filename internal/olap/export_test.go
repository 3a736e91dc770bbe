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

// GetByPK resolves a primary key to the live tuple bytes (aliasing
// partition storage): one probe of the key's partition index, then a
// slice of that partition's tuple array. It takes no lock — see
// flatIndex for why a reader never meets a writer.
func (t *Table) GetByPK(pk uint64) ([]byte, bool) {
	part, slot, ok := t.FindPK(pk)
	if !ok {
		return nil, false
	}
	return t.Partitions[part].Tuple(slot), true
}

// Get returns the tuple bytes for key (aliasing partition storage).
func (p *Partition) Get(key uint64) ([]byte, bool) {
	slot, ok := p.Locate(key)
	if !ok {
		return nil, false
	}
	return p.Tuple(slot), true
}

// Tables returns all replicated tables in creation order.
func (r *Replica) Tables() []*Table { return r.order }

// Tables returns the tables in creation order.
func (s *Snapshot) Tables() []*Table { return s.r.order }

// Rows returns the number of staged tuples.
func (rl *Reload) Rows() int {
	n := 0
	for _, parts := range rl.parts {
		for _, p := range parts {
			n += p.Live()
		}
	}
	return n
}
