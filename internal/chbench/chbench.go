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

// --- shared probe builders ----------------------------------------------

// Every probe declares its key — the columns of the row it reads them
// from, packed as internal/tpcc's key functions pack the probed table's
// primary key (tpcc/keys.go) — so the engine runs the probes of a batch
// as shared steps: the twelve order-line templates compute three
// distinct keys from an order line between them (its order, its item,
// its supplier), and every further probe is a function of a row already
// matched. TestProbeKeysPackLikeTPCC holds each builder's key to the
// tpcc function.

// col is the one-field key "column c".
func col(c int) []exec.KeyField { return []exec.KeyField{exec.KeyCol(c, 0)} }

// itemProbe joins order lines (or stock) to item through item-id column
// itemCol of the driver tuple.
func itemProbe(itemCol int, where ...exec.Pred) exec.Probe {
	return exec.Probe{Table: tpcc.TItem, From: -1, Key: col(itemCol), Where: where}
}

// ordersFromOrderLine joins order lines to their order:
// tpcc.OrderKey(w, d, o).
func ordersFromOrderLine(where ...exec.Pred) exec.Probe {
	return exec.Probe{Table: tpcc.TOrder, From: -1, Key: []exec.KeyField{
		exec.KeyCol(tpcc.OLWID, 36), exec.KeyCol(tpcc.OLDID, 32), exec.KeyCol(tpcc.OLOID, 0),
	}, Where: where}
}

// customerFromOrder joins the order matched at probe orderIdx to its
// customer: tpcc.CustomerKey(w, d, c).
func customerFromOrder(orderIdx int, where ...exec.Pred) exec.Probe {
	return exec.Probe{Table: tpcc.TCustomer, From: orderIdx, Key: []exec.KeyField{
		exec.KeyCol(tpcc.OWID, 16), exec.KeyCol(tpcc.ODID, 12), exec.KeyCol(tpcc.OCID, 0),
	}, Where: where}
}

// nationOf joins the row matched at probe from (a customer or a
// supplier) to its nation through nation-key column nationCol.
func nationOf(from, nationCol int, where ...exec.Pred) exec.Probe {
	return exec.Probe{Table: tpcc.TNation, From: from, Key: col(nationCol), Where: where}
}

// regionOfNation joins the nation matched at probe nationIdx to its
// region.
func regionOfNation(nationIdx int, where ...exec.Pred) exec.Probe {
	return exec.Probe{Table: tpcc.TRegion, From: nationIdx, Key: col(tpcc.NRegionKey), Where: where}
}

// supplierOfOrderLine joins an order line to its CH-derived supplier:
// su_suppkey = (ol_supply_w_id * ol_i_id) mod 10000.
func supplierOfOrderLine(where ...exec.Pred) exec.Probe {
	return exec.Probe{Table: tpcc.TSupplier, From: -1, Key: []exec.KeyField{
		exec.MulMod(tpcc.OLSupplyWID, tpcc.OLIID, tpcc.NumSuppliers),
	}, Where: where}
}

// supplierOfStock joins a stock row to its CH-derived supplier:
// su_suppkey = (s_w_id * s_i_id) mod 10000.
func supplierOfStock(where ...exec.Pred) exec.Probe {
	return exec.Probe{Table: tpcc.TSupplier, From: -1, Key: []exec.KeyField{
		exec.MulMod(tpcc.SWID, tpcc.SIID, tpcc.NumSuppliers),
	}, Where: where}
}

// --- aggregates ----------------------------------------------------------

var (
	sumOlAmount = exec.SumCol(tpcc.OLAmount)
	countStar   = exec.AggSpec{Kind: exec.Count}
)

// --- the queries ----------------------------------------------------------

func (g *Gen) q2() *exec.Query {
	rName, ch := g.randRegion(), g.randChar()
	return &exec.Query{
		Name:   "Q2",
		Driver: tpcc.TStock,
		Probes: []exec.Probe{
			itemProbe(tpcc.SIID, exec.HasPrefix(tpcc.IData, ch)),
			supplierOfStock(),
			nationOf(1, tpcc.SUNationKey),
			regionOfNation(2, exec.EqualStr(tpcc.RName, rName)),
		},
		Aggs: []exec.AggSpec{exec.SumCol(tpcc.SQuantity)},
	}
}

func (g *Gen) q3() *exec.Query {
	nName := g.randNation()
	return &exec.Query{
		Name:   "Q3",
		Driver: tpcc.TOrderLine,
		Probes: []exec.Probe{
			ordersFromOrderLine(),
			customerFromOrder(0),
			nationOf(1, tpcc.CNationKey, exec.EqualStr(tpcc.NName, nName)),
		},
		Aggs: []exec.AggSpec{sumOlAmount},
	}
}

func (g *Gen) q5() *exec.Query {
	rName := g.randRegion()
	return &exec.Query{
		Name:   "Q5",
		Driver: tpcc.TOrderLine,
		Probes: []exec.Probe{
			ordersFromOrderLine(),                               // joined[0]
			customerFromOrder(0),                                // joined[1]
			nationOf(1, tpcc.CNationKey),                        // joined[2]: cn
			regionOfNation(2, exec.EqualStr(tpcc.RName, rName)), // joined[3]: cr
			supplierOfOrderLine(),                               // joined[4]
			nationOf(4, tpcc.SUNationKey),                       // joined[5]: sn
			regionOfNation(5, exec.EqualStr(tpcc.RName, rName)), // joined[6]: sr
		},
		// GROUP BY n_name: one revenue row per customer nation.
		GroupBy: []exec.GroupCol{{From: 2, Col: tpcc.NNationKey}},
		Aggs:    []exec.AggSpec{sumOlAmount},
	}
}

func (g *Gen) q7() *exec.Query {
	nName := g.randNation()
	lo := tpcc.LoadEpoch - int64(60*24*time.Hour)
	hi := tpcc.LoadEpoch + int64(3650*24*time.Hour)
	return &exec.Query{
		Name:   "Q7",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.BetweenInt(tpcc.OLDeliveryD, lo, hi)},
		Probes: []exec.Probe{
			ordersFromOrderLine(), // joined[0]
			customerFromOrder(0),  // joined[1]
			nationOf(1, tpcc.CNationKey, exec.EqualStr(tpcc.NName, nName)), // joined[2]: cn
			supplierOfOrderLine(), // joined[3]
			nationOf(3, tpcc.SUNationKey, exec.EqualStr(tpcc.NName, nName)), // joined[4]: sn
		},
		// GROUP BY supp_nation, cust_nation (customer nation first so
		// Q7 instances prefix-share group keys with Q5-style rollups).
		GroupBy: []exec.GroupCol{
			{From: 2, Col: tpcc.NNationKey},
			{From: 4, Col: tpcc.NNationKey},
		},
		Aggs: []exec.AggSpec{sumOlAmount},
	}
}

func (g *Gen) q8() *exec.Query {
	rName, nName, ch := g.randRegion(), g.randNation(), g.randChar()
	return &exec.Query{
		Name:   "Q8",
		Driver: tpcc.TOrderLine,
		Probes: []exec.Probe{
			itemProbe(tpcc.OLIID, exec.HasPrefix(tpcc.IData, ch)), // joined[0]
			ordersFromOrderLine(),                                           // joined[1]
			customerFromOrder(1),                                            // joined[2]
			nationOf(2, tpcc.CNationKey),                                    // joined[3]: cn
			regionOfNation(3, exec.EqualStr(tpcc.RName, rName)),             // joined[4]: cr
			supplierOfOrderLine(),                                           // joined[5]
			nationOf(5, tpcc.SUNationKey, exec.EqualStr(tpcc.NName, nName)), // joined[6]: sn
		},
		Aggs: []exec.AggSpec{sumOlAmount},
	}
}

func (g *Gen) q9() *exec.Query {
	c1, c2 := g.randChar(), g.randChar()
	return &exec.Query{
		Name:   "Q9",
		Driver: tpcc.TOrderLine,
		Probes: []exec.Probe{itemProbe(tpcc.OLIID, exec.HasPrefix(tpcc.IData, c1+c2))},
		Aggs:   []exec.AggSpec{sumOlAmount},
	}
}

func (g *Gen) q10() *exec.Query {
	date := g.randDate()
	return &exec.Query{
		Name:   "Q10",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.CmpInt(tpcc.OLDeliveryD, exec.GE, date)},
		Aggs:   []exec.AggSpec{sumOlAmount},
	}
}

func (g *Gen) q11() *exec.Query {
	nName := g.randNation()
	return &exec.Query{
		Name:   "Q11",
		Driver: tpcc.TStock,
		Probes: []exec.Probe{
			supplierOfStock(),
			nationOf(0, tpcc.SUNationKey, exec.EqualStr(tpcc.NName, nName)),
		},
		Aggs: []exec.AggSpec{exec.SumCol(tpcc.SOrderCnt)},
	}
}

func (g *Gen) q12() *exec.Query {
	date := g.randDate()
	return &exec.Query{
		Name:   "Q12",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.CmpInt(tpcc.OLDeliveryD, exec.GE, date)},
		Probes: []exec.Probe{ordersFromOrderLine(exec.BetweenInt(tpcc.OCarrierID, 1, 2))},
		// GROUP BY o_carrier_id: one order-count row per carrier.
		GroupBy: []exec.GroupCol{{From: 0, Col: tpcc.OCarrierID}},
		Aggs:    []exec.AggSpec{countStar},
	}
}

func (g *Gen) q14() *exec.Query {
	c1, c2 := g.randChar(), g.randChar()
	date := g.randDate()
	return &exec.Query{
		Name:   "Q14",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.CmpInt(tpcc.OLDeliveryD, exec.GE, date)},
		Probes: []exec.Probe{itemProbe(tpcc.OLIID, exec.HasPrefix(tpcc.IData, c1+c2))},
		Aggs:   []exec.AggSpec{sumOlAmount},
	}
}

func (g *Gen) q16() *exec.Query {
	c1, c2 := g.randChar(), g.randChar()
	return &exec.Query{
		Name:   "Q16",
		Driver: tpcc.TOrderLine,
		Probes: []exec.Probe{
			itemProbe(tpcc.OLIID, exec.Not(exec.HasPrefix(tpcc.IData, c1+c2))),
			supplierOfOrderLine(exec.Contains(tpcc.SUComment, "Complaints")),
		},
		Aggs: []exec.AggSpec{countStar},
	}
}

func (g *Gen) q17() *exec.Query {
	ch := g.randChar()
	qty := g.randQuantity()
	return &exec.Query{
		Name:   "Q17",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.CmpInt(tpcc.OLQuantity, exec.GE, qty)},
		Probes: []exec.Probe{itemProbe(tpcc.OLIID, exec.HasPrefix(tpcc.IData, ch))},
		Aggs:   []exec.AggSpec{sumOlAmount, exec.SumCol(tpcc.OLQuantity)},
	}
}

func (g *Gen) q19() *exec.Query {
	ch := g.randChar()
	price := g.randPrice()
	return &exec.Query{
		Name:   "Q19",
		Driver: tpcc.TOrderLine,
		Where:  []exec.Pred{exec.BetweenInt(tpcc.OLQuantity, 1, 10)},
		Probes: []exec.Probe{itemProbe(tpcc.OLIID,
			exec.BetweenFloat(tpcc.IPrice, price, price+10), exec.HasPrefix(tpcc.IData, ch))},
		Aggs: []exec.AggSpec{sumOlAmount},
	}
}

func (g *Gen) q20() *exec.Query {
	ch, nName := g.randChar(), g.randNation()
	return &exec.Query{
		Name:   "Q20",
		Driver: tpcc.TOrderLine,
		Probes: []exec.Probe{
			itemProbe(tpcc.OLIID, exec.HasPrefix(tpcc.IData, ch)),
			supplierOfOrderLine(),
			nationOf(1, tpcc.SUNationKey, exec.EqualStr(tpcc.NName, nName)),
		},
		Aggs: []exec.AggSpec{countStar},
	}
}
