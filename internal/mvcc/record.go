// Package mvcc implements BatchDB's primary (OLTP) replica storage: a
// Hekaton-style multi-version row store with snapshot isolation (paper
// §4, Fig. 2).
//
// Every logical row is a Chain of Records ordered newest-first. A Record
// carries its validity interval [VIDfrom, VIDto): VIDfrom is the commit
// VID of the transaction that created it, VIDto the commit VID of the
// transaction that superseded or deleted it (vid.Infinity while current).
// While a transaction is in flight, its records carry the transaction's
// marker (a VID with the high bit set) instead of a commit VID; markers
// double as write locks, giving first-writer-wins write-write conflict
// detection without a lock manager.
//
// Memory reclamation differs from Hekaton by design: Hekaton needs
// epoch-based reclamation because C++ has no garbage collector; here Go's
// GC reclaims unlinked versions, so the background version GC (gc.go)
// only has to unlink records that are invisible to every active snapshot.
package mvcc

import (
	"sync/atomic"

	"batchdb/internal/vid"
)

// markerBit distinguishes transaction markers from commit VIDs. A VID
// with this bit set identifies an in-flight transaction and acts as a
// write lock on the record.
const markerBit = uint64(1) << 63

// abortedMarker permanently marks records created by aborted
// transactions; it has markerBit set and matches no transaction ID.
const abortedMarker = markerBit

// isMarker reports whether v is a transaction marker rather than a
// commit VID. vid.Infinity also has the high bit set but is not a
// marker.
func isMarker(v uint64) bool { return v&markerBit != 0 && v != vid.Infinity }

// Record is one version of a row. It carries no row identity of its
// own: a row is named by its chain's packed primary key (Chain.Key) in
// propagation, in the OLAP replica and on disk.
type Record struct {
	vidFrom atomic.Uint64
	vidTo   atomic.Uint64

	// older links to the version this record superseded (nil for the
	// first version). Readers traverse it to find their snapshot's
	// version; GC unlinks obsolete suffixes.
	older atomic.Pointer[Record]

	// Data is the tuple image. It is immutable once the record is
	// published; updates create a new Record.
	Data []byte
}

// Older returns the next older version, if any.
func (r *Record) Older() *Record { return r.older.Load() }

// retiredRecord is a sentinel installed as a chain's head when GC
// retires the chain. Writers that encounter it re-resolve the key
// through the primary index (which GC clears right after poisoning), so
// no insert can land in a chain that is being unlinked.
var retiredRecord = func() *Record {
	r := &Record{}
	r.vidFrom.Store(abortedMarker)
	return r
}()

// Chain anchors the version list of one logical row and its primary key.
type Chain struct {
	// Key is the packed primary key (see storage.KeyFunc).
	Key  uint64
	head atomic.Pointer[Record]
	// slot is the chain's position in its table's scan list, recorded so
	// GC can clear the slot when the chain is retired.
	slot int64
}

// Head returns the newest version, which may be uncommitted.
func (c *Chain) Head() *Record { return c.head.Load() }

// liveAtOrAfter reports whether the chain could still matter to any
// snapshot >= minSnap; used by GC to retire whole chains.
func (c *Chain) liveAtOrAfter(minSnap uint64) bool {
	h := c.head.Load()
	if h == nil || h == retiredRecord {
		return false
	}
	return c.liveWas(h, minSnap)
}

// liveWas reports whether head record h keeps the chain relevant to any
// snapshot >= minSnap.
func (c *Chain) liveWas(h *Record, minSnap uint64) bool {
	to := h.vidTo.Load()
	from := h.vidFrom.Load()
	if isMarker(from) && from != abortedMarker {
		return true // in-flight insert/update
	}
	if isMarker(to) {
		return true // write-locked
	}
	if to == vid.Infinity {
		return from != abortedMarker
	}
	// Head is a committed delete: the row is dead once no active
	// snapshot can still see it.
	return to > minSnap
}
