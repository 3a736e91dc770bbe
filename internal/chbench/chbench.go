// Package chbench implements the analytical half of the CH-benCHmark as
// modified by the paper (§8.1 and Appendix A): TPC-H-inspired queries
// rewritten against the TPC-C schema, restricted to scan + equi-join +
// aggregate, with randomized predicates so the shared-execution engine
// is not unduly favoured by duplicate work.
//
// The queries used are Q2, Q3, Q5, Q7, Q8, Q9, Q10, Q11, Q12, Q14, Q16,
// Q17, Q19 and Q20, exactly the set of Listing 1. One domain adaptation:
// the paper randomizes [DATE] over 1993–1997 because TPC-H data lives
// there; our generated order dates cluster around the generator's load
// epoch, so [DATE] is randomized over a window covering that epoch —
// same selectivity role, shifted domain (documented in DESIGN.md).
package chbench

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"batchdb/internal/olap/exec"
	"batchdb/internal/storage"
	"batchdb/internal/tpcc"
)

// Tables used by the analytical workload (must exist in the OLAP
// replica). Stock, Customer, Order and OrderLine receive propagated
// updates; Item, Supplier, Nation and Region are static dimensions.
func Tables() []storage.TableID {
	return []storage.TableID{
		tpcc.TStock, tpcc.TCustomer, tpcc.TOrder, tpcc.TOrderLine,
		tpcc.TItem, tpcc.TSupplier, tpcc.TNation, tpcc.TRegion,
	}
}

// Gen builds randomized query instances, one driver per analytical
// client (not safe for concurrent use).
type Gen struct {
	s   *tpcc.Schemas
	rng *rand.Rand
}

// NewGen creates a query generator over the CH schema set.
func NewGen(s *tpcc.Schemas, seed int64) *Gen {
	return &Gen{s: s, rng: rand.New(rand.NewSource(seed))}
}

// QueryNames lists the implemented queries.
var QueryNames = []string{
	"Q2", "Q3", "Q5", "Q7", "Q8", "Q9", "Q10", "Q11", "Q12", "Q14", "Q16", "Q17", "Q19", "Q20",
}

// Next returns a random query from the set with fresh predicates.
func (g *Gen) Next() *exec.Query {
	return g.ByName(QueryNames[g.rng.Intn(len(QueryNames))])
}

// ByName builds a specific query with randomized predicates.
func (g *Gen) ByName(name string) *exec.Query {
	switch name {
	case "Q2":
		return g.q2()
	case "Q3":
		return g.q3()
	case "Q5":
		return g.q5()
	case "Q7":
		return g.q7()
	case "Q8":
		return g.q8()
	case "Q9":
		return g.q9()
	case "Q10":
		return g.q10()
	case "Q11":
		return g.q11()
	case "Q12":
		return g.q12()
	case "Q14":
		return g.q14()
	case "Q16":
		return g.q16()
	case "Q17":
		return g.q17()
	case "Q19":
		return g.q19()
	case "Q20":
		return g.q20()
	default:
		panic(fmt.Sprintf("chbench: unknown query %q", name))
	}
}

// --- predicate parameter helpers ---------------------------------------

func (g *Gen) randNation() string { return fmt.Sprintf("NATION_%02d", g.rng.Intn(tpcc.NumNations)) }
func (g *Gen) randRegion() string { return fmt.Sprintf("REGION_%d", g.rng.Intn(tpcc.NumRegions)) }

const alnum = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

func (g *Gen) randChar() string { return string(alnum[g.rng.Intn(len(alnum))]) }

// randDate picks the paper's "[DATE] is a random first day of a month"
// over a window covering the generated data's date domain.
func (g *Gen) randDate() int64 {
	months := g.rng.Int63n(3) // 0..2 months back from load epoch
	return tpcc.LoadEpoch - months*int64(30*24*time.Hour) - g.rng.Int63n(int64(28*24*time.Hour))
}

func (g *Gen) randPrice() float64  { return float64(g.rng.Intn(101)) }
func (g *Gen) randQuantity() int64 { return g.rng.Int63n(11) }

// --- string filters -------------------------------------------------------

// String predicates compare the tuple's bytes in place (Schema.GetBytes)
// against a constant converted once per query instance: a filter is
// evaluated per build row or per probed tuple, and a string allocated
// for each evaluation was a quarter of a read-only batch's time.

func strHasPrefix(s *storage.Schema, col int, prefix string) func([]byte) bool {
	p := []byte(prefix)
	return func(t []byte) bool { return bytes.HasPrefix(s.GetBytes(t, col), p) }
}

func strEquals(s *storage.Schema, col int, v string) func([]byte) bool {
	b := []byte(v)
	return func(t []byte) bool { return bytes.Equal(s.GetBytes(t, col), b) }
}

func strContains(s *storage.Schema, col int, sub string) func([]byte) bool {
	b := []byte(sub)
	return func(t []byte) bool { return bytes.Contains(s.GetBytes(t, col), b) }
}

// --- shared probe builders ----------------------------------------------

// Every builder declares what its ProbeKey reads (exec.Probe.KeyID and
// From), so the engine runs the probes of a batch as shared steps: the
// twelve order-line templates compute three distinct keys from an order
// line between them (its order, its item, its supplier), and every
// further probe is a function of a row already matched.
// TestProbeDeclarationsMatchClosures holds the declarations to the
// closures.

// colKeyID names the key extractor "column col of s".
func colKeyID(s *storage.Schema, col int) string { return s.Name + "." + s.Columns[col].Name }

// itemProbe joins order lines (or stock) to item through an item-id
// column of the driver tuple.
func (g *Gen) itemProbe(driverSchema *storage.Schema, itemCol int, pred func([]byte) bool) exec.Probe {
	return exec.Probe{
		Table: tpcc.TItem,
		ProbeKey: func(d []byte, _ [][]byte) uint64 {
			return tpcc.ItemKey(driverSchema.GetInt64(d, itemCol))
		},
		KeyID: colKeyID(driverSchema, itemCol),
		From:  -1,
		Pred:  pred,
	}
}

// ordersFromOrderLine joins order lines to their order.
func (g *Gen) ordersFromOrderLine(pred func([]byte) bool) exec.Probe {
	ols := g.s.OrderLine
	return exec.Probe{
		Table: tpcc.TOrder,
		ProbeKey: func(d []byte, _ [][]byte) uint64 {
			return tpcc.OrderKey(ols.GetInt64(d, tpcc.OLWID), ols.GetInt64(d, tpcc.OLDID), ols.GetInt64(d, tpcc.OLOID))
		},
		KeyID: "ol.order",
		From:  -1,
		Pred:  pred,
	}
}

// customerFromOrder joins via the previously joined order tuple (index
// into joined is the position of the orders probe).
func (g *Gen) customerFromOrder(orderIdx int, pred func([]byte) bool) exec.Probe {
	os := g.s.Order
	return exec.Probe{
		Table: tpcc.TCustomer,
		ProbeKey: func(_ []byte, joined [][]byte) uint64 {
			o := joined[orderIdx]
			return tpcc.CustomerKey(os.GetInt64(o, tpcc.OWID), os.GetInt64(o, tpcc.ODID), os.GetInt64(o, tpcc.OCID))
		},
		KeyID: "o.customer",
		From:  orderIdx,
		Pred:  pred,
	}
}

// nationOf joins a previously joined tuple (a customer or a supplier:
// index from into joined, schema s) to its nation through nation-key
// column col.
func (g *Gen) nationOf(from int, s *storage.Schema, col int, pred func([]byte) bool) exec.Probe {
	return exec.Probe{
		Table: tpcc.TNation,
		ProbeKey: func(_ []byte, joined [][]byte) uint64 {
			return tpcc.NationKey(s.GetInt64(joined[from], col))
		},
		KeyID: colKeyID(s, col),
		From:  from,
		Pred:  pred,
	}
}

// regionOfNation joins a previously joined nation tuple to region.
func (g *Gen) regionOfNation(nationIdx int, pred func([]byte) bool) exec.Probe {
	ns := g.s.Nation
	return exec.Probe{
		Table: tpcc.TRegion,
		ProbeKey: func(_ []byte, joined [][]byte) uint64 {
			return tpcc.RegionKey(ns.GetInt64(joined[nationIdx], tpcc.NRegionKey))
		},
		KeyID: "n.region",
		From:  nationIdx,
		Pred:  pred,
	}
}

// supplierOfOrderLine joins an order line to its CH-derived supplier.
func (g *Gen) supplierOfOrderLine(pred func([]byte) bool) exec.Probe {
	ols := g.s.OrderLine
	return exec.Probe{
		Table: tpcc.TSupplier,
		ProbeKey: func(d []byte, _ [][]byte) uint64 {
			return tpcc.SupplierKey(tpcc.SupplierOf(ols.GetInt64(d, tpcc.OLSupplyWID), ols.GetInt64(d, tpcc.OLIID)))
		},
		KeyID: "ol.supplier",
		From:  -1,
		Pred:  pred,
	}
}

// supplierOfStock joins a stock row to its CH-derived supplier.
func (g *Gen) supplierOfStock(pred func([]byte) bool) exec.Probe {
	ss := g.s.Stock
	return exec.Probe{
		Table: tpcc.TSupplier,
		ProbeKey: func(d []byte, _ [][]byte) uint64 {
			return tpcc.SupplierKey(tpcc.SupplierOf(ss.GetInt64(d, tpcc.SWID), ss.GetInt64(d, tpcc.SIID)))
		},
		KeyID: "s.supplier",
		From:  -1,
		Pred:  pred,
	}
}

// --- aggregates ----------------------------------------------------------

// Sums over driver columns are declarative (exec.SumCol) rather than
// closures: the compiled typed kernel computes the same value, and the
// declarative form is what lets the encoded-block aggregate kernels
// answer whole morsels.
func (g *Gen) sumOlAmount() exec.AggSpec { return exec.SumCol(tpcc.OLAmount) }

func countStar() exec.AggSpec { return exec.AggSpec{Kind: exec.Count} }

// --- the queries ----------------------------------------------------------

func (g *Gen) q2() *exec.Query {
	rName, ch := g.randRegion(), g.randChar()
	ss, is, rs, sus := g.s.Stock, g.s.Item, g.s.Region, g.s.Supplier
	return &exec.Query{
		Name:   "Q2",
		Driver: tpcc.TStock,
		Probes: []exec.Probe{
			g.itemProbe(ss, tpcc.SIID, strHasPrefix(is, tpcc.IData, ch)),
			g.supplierOfStock(nil),
			g.nationOf(1, sus, tpcc.SUNationKey, nil),
			g.regionOfNation(2, strEquals(rs, tpcc.RName, rName)),
		},
		Aggs: []exec.AggSpec{exec.SumCol(tpcc.SQuantity)},
	}
}

func (g *Gen) q3() *exec.Query {
	nName := g.randNation()
	cs, ns := g.s.Customer, g.s.Nation
	return &exec.Query{
		Name:   "Q3",
		Driver: tpcc.TOrderLine,
		Probes: []exec.Probe{
			g.ordersFromOrderLine(nil),
			g.customerFromOrder(0, nil),
			g.nationOf(1, cs, tpcc.CNationKey, strEquals(ns, tpcc.NName, nName)),
		},
		Aggs: []exec.AggSpec{g.sumOlAmount()},
	}
}

func (g *Gen) q5() *exec.Query {
	rName := g.randRegion()
	cs, rs, sus := g.s.Customer, g.s.Region, g.s.Supplier
	return &exec.Query{
		Name:   "Q5",
		Driver: tpcc.TOrderLine,
		Probes: []exec.Probe{
			g.ordersFromOrderLine(nil),                            // joined[0]
			g.customerFromOrder(0, nil),                           // joined[1]
			g.nationOf(1, cs, tpcc.CNationKey, nil),               // joined[2]: cn
			g.regionOfNation(2, strEquals(rs, tpcc.RName, rName)), // joined[3]: cr
			g.supplierOfOrderLine(nil),                            // joined[4]
			g.nationOf(4, sus, tpcc.SUNationKey, nil),             // joined[5]: sn
			g.regionOfNation(5, strEquals(rs, tpcc.RName, rName)), // joined[6]: sr
		},
		// GROUP BY n_name: one revenue row per customer nation.
		GroupBy: []exec.GroupCol{{From: 2, Col: tpcc.NNationKey}},
		Aggs:    []exec.AggSpec{g.sumOlAmount()},
	}
}

func (g *Gen) q7() *exec.Query {
	nName := g.randNation()
	lo := tpcc.LoadEpoch - int64(60*24*time.Hour)
	hi := tpcc.LoadEpoch + int64(3650*24*time.Hour)
	cs, ns, sus := g.s.Customer, g.s.Nation, g.s.Supplier
	return &exec.Query{
		Name:   "Q7",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.BetweenInt(tpcc.OLDeliveryD, lo, hi)},
		Probes: []exec.Probe{
			g.ordersFromOrderLine(nil),  // joined[0]
			g.customerFromOrder(0, nil), // joined[1]
			g.nationOf(1, cs, tpcc.CNationKey, strEquals(ns, tpcc.NName, nName)), // joined[2]: cn
			g.supplierOfOrderLine(nil), // joined[3]
			g.nationOf(3, sus, tpcc.SUNationKey, strEquals(ns, tpcc.NName, nName)), // joined[4]: sn
		},
		// GROUP BY supp_nation, cust_nation (customer nation first so
		// Q7 instances prefix-share group keys with Q5-style rollups).
		GroupBy: []exec.GroupCol{
			{From: 2, Col: tpcc.NNationKey},
			{From: 4, Col: tpcc.NNationKey},
		},
		Aggs: []exec.AggSpec{g.sumOlAmount()},
	}
}

func (g *Gen) q8() *exec.Query {
	rName, nName, ch := g.randRegion(), g.randNation(), g.randChar()
	cs, ns, rs, sus, is, ols := g.s.Customer, g.s.Nation, g.s.Region, g.s.Supplier, g.s.Item, g.s.OrderLine
	return &exec.Query{
		Name:   "Q8",
		Driver: tpcc.TOrderLine,
		Probes: []exec.Probe{
			g.itemProbe(ols, tpcc.OLIID, strHasPrefix(is, tpcc.IData, ch)),         // joined[0]
			g.ordersFromOrderLine(nil),                                             // joined[1]
			g.customerFromOrder(1, nil),                                            // joined[2]
			g.nationOf(2, cs, tpcc.CNationKey, nil),                                // joined[3]: cn
			g.regionOfNation(3, strEquals(rs, tpcc.RName, rName)),                  // joined[4]: cr
			g.supplierOfOrderLine(nil),                                             // joined[5]
			g.nationOf(5, sus, tpcc.SUNationKey, strEquals(ns, tpcc.NName, nName)), // joined[6]: sn
		},
		Aggs: []exec.AggSpec{g.sumOlAmount()},
	}
}

func (g *Gen) q9() *exec.Query {
	c1, c2 := g.randChar(), g.randChar()
	is, ols := g.s.Item, g.s.OrderLine
	return &exec.Query{
		Name:   "Q9",
		Driver: tpcc.TOrderLine,
		Probes: []exec.Probe{
			g.itemProbe(ols, tpcc.OLIID, strHasPrefix(is, tpcc.IData, c1+c2)),
		},
		Aggs: []exec.AggSpec{g.sumOlAmount()},
	}
}

func (g *Gen) q10() *exec.Query {
	date := g.randDate()
	return &exec.Query{
		Name:   "Q10",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.CmpInt(tpcc.OLDeliveryD, exec.GE, date)},
		Aggs:   []exec.AggSpec{g.sumOlAmount()},
	}
}

func (g *Gen) q11() *exec.Query {
	nName := g.randNation()
	ns, sus := g.s.Nation, g.s.Supplier
	return &exec.Query{
		Name:   "Q11",
		Driver: tpcc.TStock,
		Probes: []exec.Probe{
			g.supplierOfStock(nil),
			g.nationOf(0, sus, tpcc.SUNationKey, strEquals(ns, tpcc.NName, nName)),
		},
		Aggs: []exec.AggSpec{exec.SumCol(tpcc.SOrderCnt)},
	}
}

func (g *Gen) q12() *exec.Query {
	date := g.randDate()
	ord := g.ordersFromOrderLine(nil)
	ord.Where = []exec.Pred{exec.BetweenInt(tpcc.OCarrierID, 1, 2)}
	return &exec.Query{
		Name:   "Q12",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.CmpInt(tpcc.OLDeliveryD, exec.GE, date)},
		Probes: []exec.Probe{ord},
		// GROUP BY o_carrier_id: one order-count row per carrier.
		GroupBy: []exec.GroupCol{{From: 0, Col: tpcc.OCarrierID}},
		Aggs:    []exec.AggSpec{countStar()},
	}
}

func (g *Gen) q14() *exec.Query {
	c1, c2 := g.randChar(), g.randChar()
	date := g.randDate()
	is, ols := g.s.Item, g.s.OrderLine
	return &exec.Query{
		Name:   "Q14",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.CmpInt(tpcc.OLDeliveryD, exec.GE, date)},
		Probes: []exec.Probe{
			g.itemProbe(ols, tpcc.OLIID, strHasPrefix(is, tpcc.IData, c1+c2)),
		},
		Aggs: []exec.AggSpec{g.sumOlAmount()},
	}
}

func (g *Gen) q16() *exec.Query {
	c1, c2 := g.randChar(), g.randChar()
	excluded := strHasPrefix(g.s.Item, tpcc.IData, c1+c2)
	return &exec.Query{
		Name:   "Q16",
		Driver: tpcc.TOrderLine,
		Probes: []exec.Probe{
			g.itemProbe(g.s.OrderLine, tpcc.OLIID, func(t []byte) bool { return !excluded(t) }),
			g.supplierOfOrderLine(strContains(g.s.Supplier, tpcc.SUComment, "Complaints")),
		},
		Aggs: []exec.AggSpec{countStar()},
	}
}

func (g *Gen) q17() *exec.Query {
	ch := g.randChar()
	qty := g.randQuantity()
	is, ols := g.s.Item, g.s.OrderLine
	return &exec.Query{
		Name:   "Q17",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.CmpInt(tpcc.OLQuantity, exec.GE, qty)},
		Probes: []exec.Probe{
			g.itemProbe(ols, tpcc.OLIID, strHasPrefix(is, tpcc.IData, ch)),
		},
		Aggs: []exec.AggSpec{
			g.sumOlAmount(),
			exec.SumCol(tpcc.OLQuantity),
		},
	}
}

func (g *Gen) q19() *exec.Query {
	ch := g.randChar()
	price := g.randPrice()
	is, ols := g.s.Item, g.s.OrderLine
	ip := g.itemProbe(ols, tpcc.OLIID, strHasPrefix(is, tpcc.IData, ch))
	ip.Where = []exec.Pred{exec.BetweenFloat(tpcc.IPrice, price, price+10)}
	return &exec.Query{
		Name:   "Q19",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.BetweenInt(tpcc.OLQuantity, 1, 10)},
		Probes: []exec.Probe{ip},
		Aggs:   []exec.AggSpec{g.sumOlAmount()},
	}
}

func (g *Gen) q20() *exec.Query {
	ch, nName := g.randChar(), g.randNation()
	is, ns, sus := g.s.Item, g.s.Nation, g.s.Supplier
	return &exec.Query{
		Name:   "Q20",
		Driver: tpcc.TOrderLine,
		Probes: []exec.Probe{
			g.itemProbe(g.s.OrderLine, tpcc.OLIID, strHasPrefix(is, tpcc.IData, ch)),
			g.supplierOfOrderLine(nil),
			g.nationOf(1, sus, tpcc.SUNationKey, strEquals(ns, tpcc.NName, nName)),
		},
		Aggs: []exec.AggSpec{countStar()},
	}
}
