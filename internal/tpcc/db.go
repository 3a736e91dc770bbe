package tpcc

import (
	"batchdb/internal/mvcc"
	"batchdb/internal/storage"
)

// Scale controls dataset cardinalities. Spec values describe the full
// TPC-C benchmark; SmallScale keeps unit tests fast. The paper scales by
// warehouse count only; scaling the per-district constants as well lets
// the reproduction run on laptop-class machines while preserving all
// ratios.
type Scale struct {
	Warehouses               int
	DistrictsPerWarehouse    int
	CustomersPerDistrict     int
	InitialOrdersPerDistrict int
	// UndeliveredOrders is how many of the newest initial orders per
	// district start undelivered (spec: 900 of 3000).
	UndeliveredOrders int
	Items             int
	// MaxItemID bounds item ids used in NURand; equals Items.
}

// SmallScale returns a laptop-test scale with all spec ratios preserved
// (30% of initial orders undelivered, etc.).
func SmallScale(warehouses int) Scale {
	return Scale{
		Warehouses:               warehouses,
		DistrictsPerWarehouse:    4,
		CustomersPerDistrict:     60,
		InitialOrdersPerDistrict: 60,
		UndeliveredOrders:        18,
		Items:                    500,
	}
}

// BenchScale is the laptop benchmark scale: spec district count with
// per-district cardinalities reduced 10x (so one warehouse is ~1/10 of
// a spec warehouse). The paper's 100-warehouse runs map to ~10
// warehouses at this scale.
func BenchScale(warehouses int) Scale {
	return Scale{
		Warehouses:               warehouses,
		DistrictsPerWarehouse:    10,
		CustomersPerDistrict:     300,
		InitialOrdersPerDistrict: 300,
		UndeliveredOrders:        90,
		Items:                    5000,
	}
}

// DB bundles the TPC-C tables, their secondary indexes and the scale.
type DB struct {
	Scale   Scale
	Schemas *Schemas
	Store   *mvcc.Store

	Warehouse, District, Customer, History, NewOrder, Order,
	OrderLine, Item, Stock, Supplier, Nation, Region *mvcc.Table

	// CustByName supports Payment/OrderStatus lookups by last name.
	CustByName *mvcc.Secondary
	// OrdByCust supports OrderStatus's "most recent order of customer".
	OrdByCust *mvcc.Secondary
	// NOByDist supports Delivery's "oldest undelivered order".
	NOByDist *mvcc.Secondary
}

// NewDB creates the tables (with secondary indexes) in a fresh store.
func NewDB(scale Scale) *DB {
	st := mvcc.NewStore()
	return Build(scale, st, st.CreateTable)
}

// CreateFunc creates one relation with its primary key and capacity
// hint and returns its primary-replica table.
type CreateFunc func(schema *storage.Schema, keyFn storage.KeyFunc, capacityHint int) *mvcc.Table

// Build creates the twelve TPC-C relations through create, in table-ID
// order, adds their secondary indexes and returns them bundled over
// store, the store create places them in. NewDB passes the store's own
// CreateTable; a caller that owns the tables (batchdb.DB) passes its
// own, so both get the same tables, hints and indexes.
func Build(scale Scale, store *mvcc.Store, create CreateFunc) *DB {
	sch := NewSchemas()
	db := &DB{Scale: scale, Schemas: sch, Store: store}

	hint := scale.Warehouses * scale.DistrictsPerWarehouse * scale.CustomersPerDistrict

	db.Warehouse = create(sch.Warehouse, func(t []byte) uint64 {
		return WarehouseKey(sch.Warehouse.GetInt64(t, WID))
	}, scale.Warehouses)
	db.District = create(sch.District, func(t []byte) uint64 {
		return DistrictKey(sch.District.GetInt64(t, DWID), sch.District.GetInt64(t, DID))
	}, scale.Warehouses*scale.DistrictsPerWarehouse)
	db.Customer = create(sch.Customer, func(t []byte) uint64 {
		return CustomerKey(sch.Customer.GetInt64(t, CWID), sch.Customer.GetInt64(t, CDID), sch.Customer.GetInt64(t, CID))
	}, hint)
	db.History = create(sch.History, func(t []byte) uint64 {
		return uint64(sch.History.GetInt64(t, HPK))
	}, hint)
	db.NewOrder = create(sch.NewOrder, func(t []byte) uint64 {
		return NewOrderKey(sch.NewOrder.GetInt64(t, NOWID), sch.NewOrder.GetInt64(t, NODID), sch.NewOrder.GetInt64(t, NOOID))
	}, hint)
	db.Order = create(sch.Order, func(t []byte) uint64 {
		return OrderKey(sch.Order.GetInt64(t, OWID), sch.Order.GetInt64(t, ODID), sch.Order.GetInt64(t, OID))
	}, hint)
	db.OrderLine = create(sch.OrderLine, func(t []byte) uint64 {
		return OrderLineKey(sch.OrderLine.GetInt64(t, OLWID), sch.OrderLine.GetInt64(t, OLDID),
			sch.OrderLine.GetInt64(t, OLOID), sch.OrderLine.GetInt64(t, OLNumber))
	}, hint*10)
	db.Item = create(sch.Item, func(t []byte) uint64 {
		return ItemKey(sch.Item.GetInt64(t, IID))
	}, scale.Items)
	db.Stock = create(sch.Stock, func(t []byte) uint64 {
		return StockKey(sch.Stock.GetInt64(t, SWID), sch.Stock.GetInt64(t, SIID))
	}, scale.Warehouses*scale.Items)
	db.Supplier = create(sch.Supplier, func(t []byte) uint64 {
		return SupplierKey(sch.Supplier.GetInt64(t, SUSuppKey))
	}, NumSuppliers)
	db.Nation = create(sch.Nation, func(t []byte) uint64 {
		return NationKey(sch.Nation.GetInt64(t, NNationKey))
	}, NumNations)
	db.Region = create(sch.Region, func(t []byte) uint64 {
		return RegionKey(sch.Region.GetInt64(t, RRegionKey))
	}, NumRegions)

	db.CustByName = db.Customer.AddSecondary(func(t []byte) uint64 {
		return CustomerNameKey(sch.Customer.GetInt64(t, CWID), sch.Customer.GetInt64(t, CDID),
			sch.Customer.GetString(t, CLast), sch.Customer.GetInt64(t, CID))
	})
	db.OrdByCust = db.Order.AddSecondary(func(t []byte) uint64 {
		return OrderCustomerKey(sch.Order.GetInt64(t, OWID), sch.Order.GetInt64(t, ODID),
			sch.Order.GetInt64(t, OCID), sch.Order.GetInt64(t, OID))
	})
	db.NOByDist = db.NewOrder.AddSecondary(func(t []byte) uint64 {
		return NewOrderKey(sch.NewOrder.GetInt64(t, NOWID), sch.NewOrder.GetInt64(t, NODID),
			sch.NewOrder.GetInt64(t, NOOID))
	})
	return db
}

// TableByID returns the mvcc table for a table ID (nil if unknown).
func (db *DB) TableByID(id storage.TableID) *mvcc.Table {
	switch id {
	case TWarehouse:
		return db.Warehouse
	case TDistrict:
		return db.District
	case TCustomer:
		return db.Customer
	case THistory:
		return db.History
	case TNewOrder:
		return db.NewOrder
	case TOrder:
		return db.Order
	case TOrderLine:
		return db.OrderLine
	case TItem:
		return db.Item
	case TStock:
		return db.Stock
	case TSupplier:
		return db.Supplier
	case TNation:
		return db.Nation
	case TRegion:
		return db.Region
	default:
		return nil
	}
}
