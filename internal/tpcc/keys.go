package tpcc

// Packed uint64 primary keys. Bit budgets (high to low):
//
//	warehouse:  w
//	district:   w<<4  | d            (d in 1..10)
//	customer:   w<<16 | d<<12 | c    (c in 1..3000)
//	orders:     (w<<4|d)<<32 | o     (o < 2^32)
//	new_order:  same as orders
//	order_line: ((w<<4|d)<<32|o)<<4 | n  (n in 1..15)
//	item:       i                    (i in 1..100000)
//	stock:      w<<20 | i
//	history:    (w<<16|d<<12|c)<<20 | paymentCnt
//
// These stay within 64 bits for w < 2^24, far beyond laptop scale.

// WarehouseKey packs a warehouse primary key.
func WarehouseKey(w int64) uint64 { return uint64(w) }

// DistrictKey packs a district primary key.
func DistrictKey(w, d int64) uint64 { return uint64(w)<<4 | uint64(d) }

// CustomerKey packs a customer primary key.
func CustomerKey(w, d, c int64) uint64 { return uint64(w)<<16 | uint64(d)<<12 | uint64(c) }

// OrderKey packs an order primary key.
func OrderKey(w, d, o int64) uint64 { return (uint64(w)<<4|uint64(d))<<32 | uint64(o) }

// NewOrderKey packs a new_order primary key.
func NewOrderKey(w, d, o int64) uint64 { return OrderKey(w, d, o) }

// OrderLineKey packs an order_line primary key.
func OrderLineKey(w, d, o, n int64) uint64 { return OrderKey(w, d, o)<<4 | uint64(n) }

// ItemKey packs an item primary key.
func ItemKey(i int64) uint64 { return uint64(i) }

// StockKey packs a stock primary key.
func StockKey(w, i int64) uint64 { return uint64(w)<<20 | uint64(i) }

// HistoryKey packs the synthetic history key: unique because a
// customer's payment count increments with every payment.
func HistoryKey(w, d, c, paymentCnt int64) uint64 {
	return CustomerKey(w, d, c)<<20 | uint64(paymentCnt)
}

// SupplierKey, NationKey and RegionKey pack the CH dimension keys.
func SupplierKey(k int64) uint64 { return uint64(k) }

// NationKey packs a nation primary key.
func NationKey(k int64) uint64 { return uint64(k) }

// RegionKey packs a region primary key.
func RegionKey(k int64) uint64 { return uint64(k) }

// Secondary index keys ---------------------------------------------------

// CustomerNameKey orders customers by (w, d, hash(last), c): lookups by
// last name seek the 40-bit prefix and verify the name on the tuple.
func CustomerNameKey(w, d int64, last string, c int64) uint64 {
	return (uint64(w)<<4|uint64(d))<<40 | uint64(nameHash(last))<<24 | uint64(c)
}

// CustomerNamePrefix returns the [lo, hi) key range of a (w, d, last)
// group in the customer name index.
func CustomerNamePrefix(w, d int64, last string) (uint64, uint64) {
	base := (uint64(w)<<4|uint64(d))<<40 | uint64(nameHash(last))<<24
	return base, base + 1<<24
}

func nameHash(s string) uint16 {
	var h uint16 = 0xABCD
	for i := 0; i < len(s); i++ {
		h = h*31 + uint16(s[i])
	}
	return h
}

// OrderCustomerKey orders the orders of one customer by o_id:
// (w, d, c, o). OrderStatus seeks the end of the prefix for the
// customer's most recent order.
func OrderCustomerKey(w, d, c, o int64) uint64 {
	return ((uint64(w)<<4|uint64(d))<<12|uint64(c))<<32 | uint64(o)
}

// OrderCustomerPrefix returns the [lo, hi) range of one customer's
// orders in the order-customer index.
func OrderCustomerPrefix(w, d, c int64) (uint64, uint64) {
	base := ((uint64(w)<<4|uint64(d))<<12 | uint64(c)) << 32
	return base, base + 1<<32
}

// NewOrderDistrictPrefix returns the [lo, hi) range of one district's
// new_order entries (ordered by o_id) — Delivery picks the oldest.
func NewOrderDistrictPrefix(w, d int64) (uint64, uint64) {
	base := (uint64(w)<<4 | uint64(d)) << 32
	return base, base + 1<<32
}
