package checkpoint

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"batchdb/internal/mvcc"
	"batchdb/internal/storage"
)

// TableSum is a content fingerprint of one table at a snapshot: the row
// count plus an order-independent checksum (the wrapping sum of per-row
// FNV-1a hashes over primary key and tuple bytes). Two stores hold the
// same logical state at a snapshot iff their TableSums match, whatever
// order their scans visit the rows in.
type TableSum struct {
	Table storage.TableID `json:"table"`
	Rows  uint64          `json:"rows"`
	Sum   uint64          `json:"sum"`
}

// SumAt fingerprints every table of the store at snapshot snap. Used to
// record the seed fingerprint (VID 0) in the manifest, and by the crash
// harness to compare recovered state against the original at the
// recovered watermark.
func SumAt(store *mvcc.Store, snap uint64) []TableSum {
	ro := store.BeginROAt(snap)
	defer ro.Release()
	var out []TableSum
	for _, t := range store.Tables() {
		ts := TableSum{Table: t.Schema.ID}
		var kb [8]byte
		t.Scan(ro, func(key uint64, tup []byte) bool {
			h := fnv.New64a()
			binary.LittleEndian.PutUint64(kb[:], key)
			h.Write(kb[:])
			h.Write(tup)
			ts.Sum += h.Sum64()
			ts.Rows++
			return true
		})
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// SumsEqual reports whether two fingerprints describe the same state.
func SumsEqual(a, b []TableSum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
