package chbench

import (
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/replica"
	"batchdb/internal/tpcc"
)

// NewReplica creates an OLAP replica with the CH-benCHmark tables,
// bootstrapped from the primary's current committed state. parts is the
// partition count (paper: one per OLAP worker core).
func NewReplica(db *tpcc.DB, parts int) (*olap.Replica, error) {
	rep := EmptyReplica(db, parts)
	if _, err := replica.LoadLocal(rep, db.Store, Tables()); err != nil {
		return nil, err
	}
	return rep, nil
}

// Next returns a random query from the set with fresh predicates.
func (g *Gen) Next() *exec.Query {
	return g.ByName(QueryNames[g.rng.Intn(len(QueryNames))])
}
