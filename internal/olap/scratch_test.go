package olap

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"batchdb/internal/proplog"
)

// The apply scratch is reused across rounds; it must not keep a round's
// entries — and through their Data the receive chunks they alias —
// reachable once the round is over. Rounds of shrinking size followed by
// a quiet round are the shape that leaked: the big round's tail slots
// were never overwritten again.
func TestApplyScratchReleasesChunks(t *testing.T) {
	s := kvSchema()
	r := NewReplica(4)
	r.CreateTable(s, 64)

	const tupleSize = 16
	var freed atomic.Int64
	key, vid := uint64(0), uint64(0)
	sizes := []int{3 * routeShardMin, 512, 64, 8} // the first round takes the sharded router too
	for _, n := range sizes {
		// One receive chunk per round; every entry's Data aliases it, as
		// decoded pushes alias their network copy.
		chunk := make([]byte, n*tupleSize)
		runtime.SetFinalizer(&chunk[0], func(*byte) { freed.Add(1) })
		entries := make([]proplog.Entry, n)
		for i := range entries {
			key++
			vid++
			data := chunk[i*tupleSize : (i+1)*tupleSize : (i+1)*tupleSize]
			copy(data, tuple(s, int64(key), int64(vid)))
			entries[i] = proplog.Entry{VID: vid, Kind: proplog.Insert, Key: key, Size: tupleSize, Data: data}
		}
		r.ApplyUpdates([]proplog.Batch{{Worker: 0, Tables: []proplog.TableBatch{{Table: s.ID, Entries: entries}}}}, vid)
		if st, err := r.ApplyPending(vid); err != nil || st.Entries != n {
			t.Fatalf("round of %d: applied %d, err %v", n, st.Entries, err)
		}
	}
	if _, err := r.ApplyPending(vid); err != nil { // quiet round
		t.Fatal(err)
	}
	if got := r.Table(s.ID).Live(); got != int(key) {
		t.Fatalf("live rows = %d, want %d", got, key)
	}

	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < int64(len(sizes)) && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(r)
	if got := freed.Load(); got != int64(len(sizes)) {
		t.Fatalf("%d of %d receive chunks were collected after their rounds; the apply scratch still references the rest", got, len(sizes))
	}
}
