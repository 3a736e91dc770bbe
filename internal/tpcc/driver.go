package tpcc

import (
	"math/rand"
	"time"
)

// Driver generates TPC-C transaction requests. Each client owns one
// Driver (they are not safe for concurrent use); all randomness is drawn
// here and shipped in the arguments, so stored procedures stay
// deterministic.
type Driver struct {
	scale Scale
	rng   *rand.Rand
}

// NewDriver creates a driver with its own deterministic random stream.
func NewDriver(scale Scale, seed int64) *Driver {
	return &Driver{scale: scale, rng: rand.New(rand.NewSource(seed))}
}

func (d *Driver) randWID() int64 { return 1 + d.rng.Int63n(int64(d.scale.Warehouses)) }
func (d *Driver) randDID() int64 { return 1 + d.rng.Int63n(int64(d.scale.DistrictsPerWarehouse)) }

func (d *Driver) randCID() int64 {
	n := int64(d.scale.CustomersPerDistrict)
	return nuRand(d.rng, 1023, cNURandCID, 1, n)
}

func (d *Driver) randItem() int64 {
	return nuRand(d.rng, 8191, cNURandItem, 1, int64(d.scale.Items))
}

// randLastName picks a last name that is guaranteed to exist at this
// scale (the loader assigns names 0..min(999, customers-1) to the first
// customers).
func (d *Driver) randLastName() string {
	max := int64(d.scale.CustomersPerDistrict)
	if max > 1000 {
		max = 1000
	}
	return LastName(nuRand(d.rng, 255, cNURandLast, 0, max-1))
}

// Next produces the next request per the standard mix.
func (d *Driver) Next() (proc string, args []byte) {
	r := d.rng.Intn(100)
	switch {
	case r < 45:
		return ProcNewOrder, d.NewOrder().Encode()
	case r < 88:
		return ProcPayment, d.Payment().Encode()
	case r < 92:
		return ProcOrderStatus, d.OrderStatus().Encode()
	case r < 96:
		return ProcDelivery, d.Delivery().Encode()
	default:
		return ProcStockLevel, d.StockLevel().Encode()
	}
}

// NewOrder draws New-Order arguments: home warehouse/district, NURand
// customer and items, 5-15 lines, 1% remote lines, 1% intentional
// rollback via an unused item number.
func (d *Driver) NewOrder() *NewOrderArgs {
	w := d.randWID()
	a := &NewOrderArgs{
		WID:    w,
		DID:    d.randDID(),
		CID:    d.randCID(),
		EntryD: time.Now().UnixNano(),
	}
	olCnt := 5 + d.rng.Intn(11)
	rollback := d.rng.Intn(100) == 0
	for i := 0; i < olCnt; i++ {
		l := OrderLineReq{
			ItemID:    d.randItem(),
			SupplyWID: w,
			Quantity:  1 + d.rng.Int63n(10),
		}
		if d.scale.Warehouses > 1 && d.rng.Intn(100) == 0 {
			for l.SupplyWID == w {
				l.SupplyWID = d.randWID()
			}
		}
		if rollback && i == olCnt-1 {
			l.ItemID = 0 // unused item number
		}
		a.Lines = append(a.Lines, l)
	}
	return a
}

// Payment draws Payment arguments: 85% home district, 15% remote
// customer, 60% selection by last name.
func (d *Driver) Payment() *PaymentArgs {
	w := d.randWID()
	a := &PaymentArgs{
		WID:    w,
		DID:    d.randDID(),
		CWID:   w,
		CDID:   0,
		Amount: 1 + float64(d.rng.Intn(499900))/100,
		Date:   time.Now().UnixNano(),
	}
	a.CDID = d.randDID()
	if d.scale.Warehouses > 1 && d.rng.Intn(100) < 15 {
		for a.CWID == w {
			a.CWID = d.randWID()
		}
	}
	if d.rng.Intn(100) < 60 {
		a.ByName = true
		a.CLast = d.randLastName()
	} else {
		a.CID = d.randCID()
	}
	return a
}

// OrderStatus draws Order-Status arguments (60% by last name).
func (d *Driver) OrderStatus() *OrderStatusArgs {
	a := &OrderStatusArgs{WID: d.randWID(), DID: d.randDID()}
	if d.rng.Intn(100) < 60 {
		a.ByName = true
		a.CLast = d.randLastName()
	} else {
		a.CID = d.randCID()
	}
	return a
}

// Delivery draws Delivery arguments.
func (d *Driver) Delivery() *DeliveryArgs {
	return &DeliveryArgs{
		WID:       d.randWID(),
		CarrierID: 1 + d.rng.Int63n(10),
		Date:      time.Now().UnixNano(),
	}
}

// StockLevel draws Stock-Level arguments.
func (d *Driver) StockLevel() *StockLevelArgs {
	return &StockLevelArgs{
		WID:       d.randWID(),
		DID:       d.randDID(),
		Threshold: 10 + d.rng.Int63n(11),
	}
}
