package storage

// KeyFunc extracts a dense uint64 primary key from a tuple. Workloads
// install one per table so the OLTP primary index and the update log can
// address rows without allocation.
type KeyFunc func(tup []byte) uint64
