package tpcc

import (
	"fmt"
	"math/rand"
	"time"
)

// NURand constants. The spec draws the runtime constant from a range
// around the load-time constant; using identical constants is the
// simplest valid-enough choice for a reproduction and keeps recovery
// deterministic.
const (
	cNURandLast = 173
	cNURandCID  = 521
	cNURandItem = 3847
)

// nuRand is the spec's non-uniform random function NURand(A, x, y).
func nuRand(rng *rand.Rand, a, c, x, y int64) int64 {
	return (((rng.Int63n(a+1) | (x + rng.Int63n(y-x+1))) + c) % (y - x + 1)) + x
}

// lastNameSyllables per TPC-C 4.3.2.3.
var lastNameSyllables = []string{
	"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
}

// LastName builds the spec's synthetic customer last name for a number
// in [0, 999].
func LastName(num int64) string {
	return lastNameSyllables[num/100] + lastNameSyllables[(num/10)%10] + lastNameSyllables[num%10]
}

const alnum = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

func randStr(rng *rand.Rand, lo, hi int) string {
	n := lo
	if hi > lo {
		n += rng.Intn(hi - lo + 1)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = alnum[rng.Intn(len(alnum))]
	}
	return string(b)
}

func randZip(rng *rand.Rand) string {
	b := make([]byte, 9)
	for i := 0; i < 4; i++ {
		b[i] = byte('0' + rng.Intn(10))
	}
	copy(b[4:], "11111")
	return string(b)
}

// LoadEpoch is the fixed "now" of the initial population, so that data
// generation is deterministic and recovery reproducible.
var LoadEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()

// Generate populates db at VID 0 using a deterministic seed. Call once,
// before the engine starts.
func Generate(db *DB, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	if err := genRegionsNations(db, rng); err != nil {
		return err
	}
	if err := genSuppliers(db, rng); err != nil {
		return err
	}
	if err := genItems(db, rng); err != nil {
		return err
	}
	for w := 1; w <= db.Scale.Warehouses; w++ {
		if err := genWarehouse(db, rng, int64(w)); err != nil {
			return err
		}
	}
	return nil
}

func genRegionsNations(db *DB, rng *rand.Rand) error {
	s := db.Schemas.Region
	for r := int64(0); r < NumRegions; r++ {
		t := s.NewTuple()
		s.PutInt64(t, RRegionKey, r)
		s.PutString(t, RName, fmt.Sprintf("REGION_%d", r))
		if err := db.Region.LoadRow(t); err != nil {
			return err
		}
	}
	n := db.Schemas.Nation
	for k := int64(0); k < NumNations; k++ {
		t := n.NewTuple()
		n.PutInt64(t, NNationKey, k)
		n.PutString(t, NName, fmt.Sprintf("NATION_%02d", k))
		n.PutInt64(t, NRegionKey, k%NumRegions)
		if err := db.Nation.LoadRow(t); err != nil {
			return err
		}
	}
	return nil
}

func genSuppliers(db *DB, rng *rand.Rand) error {
	s := db.Schemas.Supplier
	for k := int64(0); k < NumSuppliers; k++ {
		t := s.NewTuple()
		s.PutInt64(t, SUSuppKey, k)
		s.PutString(t, SUName, fmt.Sprintf("Supplier#%09d", k))
		s.PutInt64(t, SUNationKey, rng.Int63n(NumNations))
		s.PutString(t, SUPhone, randStr(rng, 12, 12))
		s.PutFloat64(t, SUAcctBal, float64(rng.Intn(1000000))/100)
		comment := randStr(rng, 30, 60)
		if rng.Intn(20) == 0 { // 5% complainers (Q16 predicate)
			comment = comment[:10] + "Complaints" + comment[20:]
		}
		s.PutString(t, SUComment, comment)
		if err := db.Supplier.LoadRow(t); err != nil {
			return err
		}
	}
	return nil
}

func genItems(db *DB, rng *rand.Rand) error {
	s := db.Schemas.Item
	for i := int64(1); i <= int64(db.Scale.Items); i++ {
		t := s.NewTuple()
		s.PutInt64(t, IID, i)
		s.PutInt64(t, IImID, 1+rng.Int63n(10000))
		s.PutString(t, IName, randStr(rng, 14, 24))
		s.PutFloat64(t, IPrice, 1+float64(rng.Intn(9900))/100)
		data := randStr(rng, 26, 50)
		if rng.Intn(10) == 0 { // 10% carry ORIGINAL per spec
			data = data[:5] + "ORIGINAL" + data[13:]
		}
		s.PutString(t, IData, data)
		if err := db.Item.LoadRow(t); err != nil {
			return err
		}
	}
	return nil
}

func genWarehouse(db *DB, rng *rand.Rand, w int64) error {
	ws := db.Schemas.Warehouse
	t := ws.NewTuple()
	ws.PutInt64(t, WID, w)
	ws.PutString(t, WName, randStr(rng, 6, 10))
	ws.PutString(t, WStreet1, randStr(rng, 10, 20))
	ws.PutString(t, WStreet2, randStr(rng, 10, 20))
	ws.PutString(t, WCity, randStr(rng, 10, 20))
	ws.PutString(t, WState, randStr(rng, 2, 2))
	ws.PutString(t, WZip, randZip(rng))
	ws.PutFloat64(t, WTax, float64(rng.Intn(2001))/10000)
	ws.PutFloat64(t, WYtd, 300000)
	if err := db.Warehouse.LoadRow(t); err != nil {
		return err
	}

	// Stock for every item.
	ss := db.Schemas.Stock
	for i := int64(1); i <= int64(db.Scale.Items); i++ {
		st := ss.NewTuple()
		ss.PutInt64(st, SIID, i)
		ss.PutInt64(st, SWID, w)
		ss.PutInt64(st, SQuantity, 10+rng.Int63n(91))
		for d := 0; d < 10; d++ {
			ss.PutString(st, SDist01+d, randStr(rng, 24, 24))
		}
		data := randStr(rng, 26, 50)
		if rng.Intn(10) == 0 {
			data = data[:5] + "ORIGINAL" + data[13:]
		}
		ss.PutString(st, SData, data)
		if err := db.Stock.LoadRow(st); err != nil {
			return err
		}
	}

	for d := 1; d <= db.Scale.DistrictsPerWarehouse; d++ {
		if err := genDistrict(db, rng, w, int64(d)); err != nil {
			return err
		}
	}
	return nil
}

func genDistrict(db *DB, rng *rand.Rand, w, d int64) error {
	ds := db.Schemas.District
	t := ds.NewTuple()
	ds.PutInt64(t, DID, d)
	ds.PutInt64(t, DWID, w)
	ds.PutString(t, DName, randStr(rng, 6, 10))
	ds.PutString(t, DStreet1, randStr(rng, 10, 20))
	ds.PutString(t, DStreet2, randStr(rng, 10, 20))
	ds.PutString(t, DCity, randStr(rng, 10, 20))
	ds.PutString(t, DState, randStr(rng, 2, 2))
	ds.PutString(t, DZip, randZip(rng))
	ds.PutFloat64(t, DTax, float64(rng.Intn(2001))/10000)
	ds.PutFloat64(t, DYtd, 30000)
	ds.PutInt64(t, DNextOID, int64(db.Scale.InitialOrdersPerDistrict)+1)
	if err := db.District.LoadRow(t); err != nil {
		return err
	}

	nCust := int64(db.Scale.CustomersPerDistrict)
	cs := db.Schemas.Customer
	for c := int64(1); c <= nCust; c++ {
		ct := cs.NewTuple()
		cs.PutInt64(ct, CID, c)
		cs.PutInt64(ct, CDID, d)
		cs.PutInt64(ct, CWID, w)
		cs.PutString(ct, CFirst, randStr(rng, 8, 16))
		cs.PutString(ct, CMiddle, "OE")
		var lastNum int64
		if c <= 1000 {
			lastNum = (c - 1) % 1000
		} else {
			lastNum = nuRand(rng, 255, cNURandLast, 0, 999)
		}
		cs.PutString(ct, CLast, LastName(lastNum))
		cs.PutString(ct, CStreet1, randStr(rng, 10, 20))
		cs.PutString(ct, CStreet2, randStr(rng, 10, 20))
		cs.PutString(ct, CCity, randStr(rng, 10, 20))
		cs.PutString(ct, CState, randStr(rng, 2, 2))
		cs.PutString(ct, CZip, randZip(rng))
		cs.PutString(ct, CPhone, randStr(rng, 16, 16))
		cs.PutInt64(ct, CSince, LoadEpoch)
		if rng.Intn(10) == 0 { // 10% bad credit
			cs.PutString(ct, CCredit, "BC")
		} else {
			cs.PutString(ct, CCredit, "GC")
		}
		cs.PutFloat64(ct, CCreditLim, 50000)
		cs.PutFloat64(ct, CDiscount, float64(rng.Intn(5001))/10000)
		cs.PutFloat64(ct, CBalance, -10)
		cs.PutFloat64(ct, CYtdPayment, 10)
		cs.PutInt64(ct, CPaymentCnt, 1)
		cs.PutInt64(ct, CDeliveryCnt, 0)
		cs.PutString(ct, CData, randStr(rng, 100, 250))
		cs.PutInt64(ct, CNationKey, rng.Int63n(NumNations))
		if err := db.Customer.LoadRow(ct); err != nil {
			return err
		}

		// One initial history row per customer.
		hs := db.Schemas.History
		ht := hs.NewTuple()
		hs.PutInt64(ht, HPK, int64(HistoryKey(w, d, c, 0)))
		hs.PutInt64(ht, HCID, c)
		hs.PutInt64(ht, HCDID, d)
		hs.PutInt64(ht, HCWID, w)
		hs.PutInt64(ht, HDID, d)
		hs.PutInt64(ht, HWID, w)
		hs.PutInt64(ht, HDate, LoadEpoch)
		hs.PutFloat64(ht, HAmount, 10)
		hs.PutString(ht, HData, randStr(rng, 12, 24))
		if err := db.History.LoadRow(ht); err != nil {
			return err
		}
	}

	// Initial orders over a random permutation of customers.
	nOrders := int64(db.Scale.InitialOrdersPerDistrict)
	perm := rng.Perm(int(nCust))
	os := db.Schemas.Order
	ols := db.Schemas.OrderLine
	nos := db.Schemas.NewOrder
	deliveredUpTo := nOrders - int64(db.Scale.UndeliveredOrders)
	for o := int64(1); o <= nOrders; o++ {
		cID := int64(perm[int((o-1))%len(perm)]) + 1
		olCnt := 5 + rng.Int63n(11)
		entry := LoadEpoch - rng.Int63n(int64(30*24*time.Hour))
		ot := os.NewTuple()
		os.PutInt64(ot, OID, o)
		os.PutInt64(ot, ODID, d)
		os.PutInt64(ot, OWID, w)
		os.PutInt64(ot, OCID, cID)
		os.PutInt64(ot, OEntryD, entry)
		if o <= deliveredUpTo {
			os.PutInt64(ot, OCarrierID, 1+rng.Int63n(10))
		}
		os.PutInt64(ot, OOlCnt, olCnt)
		os.PutInt64(ot, OAllLocal, 1)
		if err := db.Order.LoadRow(ot); err != nil {
			return err
		}
		for n := int64(1); n <= olCnt; n++ {
			lt := ols.NewTuple()
			ols.PutInt64(lt, OLOID, o)
			ols.PutInt64(lt, OLDID, d)
			ols.PutInt64(lt, OLWID, w)
			ols.PutInt64(lt, OLNumber, n)
			ols.PutInt64(lt, OLIID, 1+rng.Int63n(int64(db.Scale.Items)))
			ols.PutInt64(lt, OLSupplyWID, w)
			if o <= deliveredUpTo {
				ols.PutInt64(lt, OLDeliveryD, entry)
			}
			ols.PutInt64(lt, OLQuantity, 5)
			// Deviation from strict TPC-C initial population (which
			// zeroes delivered amounts): CH-benCHmark analytics need
			// non-degenerate amounts on day one.
			ols.PutFloat64(lt, OLAmount, float64(1+rng.Intn(999999))/100)
			ols.PutString(lt, OLDistInfo, randStr(rng, 24, 24))
			if err := db.OrderLine.LoadRow(lt); err != nil {
				return err
			}
		}
		if o > deliveredUpTo {
			nt := nos.NewTuple()
			nos.PutInt64(nt, NOOID, o)
			nos.PutInt64(nt, NODID, d)
			nos.PutInt64(nt, NOWID, w)
			if err := db.NewOrder.LoadRow(nt); err != nil {
				return err
			}
		}
	}
	return nil
}
