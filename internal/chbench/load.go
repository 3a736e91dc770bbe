package chbench

import (
	"batchdb/internal/olap"
	"batchdb/internal/storage"
	"batchdb/internal/tpcc"
)

// EmptyReplica creates the CH table set without loading data (for
// remote bootstrap via replica.ShipSnapshot). Rows arrive under the
// primary's packed keys, so each join probe is a lookup in the index of
// the partition its key hashes to.
func EmptyReplica(db *tpcc.DB, parts int) *olap.Replica {
	rep := olap.NewReplica(parts)
	sc := db.Scale
	rowHint := sc.Warehouses * sc.DistrictsPerWarehouse * sc.InitialOrdersPerDistrict
	hint := map[storage.TableID]int{
		tpcc.TStock:     sc.Warehouses * sc.Items,
		tpcc.TCustomer:  sc.Warehouses * sc.DistrictsPerWarehouse * sc.CustomersPerDistrict,
		tpcc.TOrder:     rowHint,
		tpcc.TOrderLine: rowHint * 10,
		tpcc.TItem:      sc.Items,
		tpcc.TSupplier:  tpcc.NumSuppliers,
		tpcc.TNation:    tpcc.NumNations,
		tpcc.TRegion:    tpcc.NumRegions,
	}
	for _, id := range Tables() {
		rep.CreateTable(db.TableByID(id).Schema, hint[id])
	}
	return rep
}
