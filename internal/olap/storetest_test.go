package olap

import (
	"testing"

	"batchdb/internal/storetest"
)

// TestStoreConformance runs the shared partition conformance suite
// (internal/storetest) against the row partition in every storage
// configuration: bare, zone-mapped, and zone-mapped with encoded
// vectors, pinning every configuration to one contract.
func TestStoreConformance(t *testing.T) {
	configs := []struct {
		name string
		mk   func() storetest.Store
	}{
		{"Bare", func() storetest.Store {
			return NewPartition(storetest.Schema(), 16)
		}},
		{"ZoneMapped", func() storetest.Store {
			p := NewPartition(storetest.Schema(), 16)
			p.EnableZoneMap(64)
			p.ActivateSynopsisCols(^uint64(0))
			return p
		}},
		{"Compressed", func() storetest.Store {
			p := NewPartition(storetest.Schema(), 16)
			p.EnableZoneMap(64)
			p.ActivateSynopsisCols(^uint64(0))
			p.EnableCompression()
			return p
		}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) { storetest.Run(t, c.mk) })
	}
}
