package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"batchdb/internal/olap"
	"batchdb/internal/proplog"
	"batchdb/internal/storage"
)

// linkFixture is a three-step chain whose every table takes updates:
// lines(id, order, amount) → orders(id, cust) → customers(id, region) →
// regions(id, bonus). Row ids are locator-derived, and the slots of
// deleted orders and customers are reused.
type linkFixture struct {
	replica                           *olap.Replica
	lines, orders, customers, regions *storage.Schema
	vid                               uint64
	// Next free keys, and the live rows the test may delete.
	nextLine, nextOrder, nextCust int64
	liveOrders, liveCusts         []int64
}

const (
	tblLines   storage.TableID = 11
	tblLOrders storage.TableID = 12
	tblLCusts  storage.TableID = 13
	tblRegions storage.TableID = 14
	nRegions                   = 5
)

func newLinkFixture(t *testing.T) *linkFixture {
	t.Helper()
	i64 := func(name string) storage.Column { return storage.Column{Name: name, Type: storage.Int64} }
	f := &linkFixture{
		lines: storage.NewSchema(tblLines, "lines", []storage.Column{
			i64("id"), i64("order"), {Name: "amount", Type: storage.Float64}}, []int{0}),
		orders:    storage.NewSchema(tblLOrders, "orders", []storage.Column{i64("id"), i64("cust")}, []int{0}),
		customers: storage.NewSchema(tblLCusts, "customers", []storage.Column{i64("id"), i64("region")}, []int{0}),
		regions: storage.NewSchema(tblRegions, "regions", []storage.Column{
			i64("id"), {Name: "bonus", Type: storage.Float64}}, []int{0}),
		nextLine: 1, nextOrder: 1, nextCust: 1,
	}
	f.replica = olap.NewReplica(3)
	f.replica.CreateTable(f.lines, 64)
	f.replica.CreateTable(f.orders, 64)
	f.replica.CreateTable(f.customers, 64)
	f.replica.CreateTable(f.regions, nRegions)
	for r := int64(0); r < nRegions; r++ {
		tup := f.regions.NewTuple()
		f.regions.PutInt64(tup, 0, r)
		f.regions.PutFloat64(tup, 1, float64(r)*100)
		if err := f.replica.LoadTuple(tblRegions, uint64(r), tup); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// round is one apply round's worth of changes.
type round struct {
	newCusts, newOrders, newLines int
	delCusts, delOrders           int
}

func (f *linkFixture) apply(t *testing.T, rng *rand.Rand, rd round) {
	t.Helper()
	f.vid++
	buf := proplog.NewBuffer(0)
	add := func(table storage.TableID, kind proplog.Kind, key int64, data []byte) {
		buf.Add(table, proplog.Entry{VID: f.vid, Kind: kind, Key: uint64(key), Size: uint32(len(data)), Data: data})
	}
	// Deletes first, so that the inserts of the same round reuse the
	// slots. Lines of a deleted order (orders of a deleted customer) stay:
	// the join drops them, through a link that now misses.
	for i := 0; i < rd.delCusts && len(f.liveCusts) > 1; i++ {
		j := rng.Intn(len(f.liveCusts))
		add(tblLCusts, proplog.Delete, f.liveCusts[j], nil)
		f.liveCusts = append(f.liveCusts[:j], f.liveCusts[j+1:]...)
	}
	for i := 0; i < rd.delOrders && len(f.liveOrders) > 1; i++ {
		j := rng.Intn(len(f.liveOrders))
		add(tblLOrders, proplog.Delete, f.liveOrders[j], nil)
		f.liveOrders = append(f.liveOrders[:j], f.liveOrders[j+1:]...)
	}
	for i := 0; i < rd.newCusts; i++ {
		tup := f.customers.NewTuple()
		f.customers.PutInt64(tup, 0, f.nextCust)
		f.customers.PutInt64(tup, 1, rng.Int63n(nRegions+1)) // region 5 does not exist: a miss
		add(tblLCusts, proplog.Insert, f.nextCust, tup)
		f.liveCusts = append(f.liveCusts, f.nextCust)
		f.nextCust++
	}
	for i := 0; i < rd.newOrders; i++ {
		tup := f.orders.NewTuple()
		f.orders.PutInt64(tup, 0, f.nextOrder)
		f.orders.PutInt64(tup, 1, 1+rng.Int63n(f.nextCust)) // now and then a customer that is gone, or not there yet
		add(tblLOrders, proplog.Insert, f.nextOrder, tup)
		f.liveOrders = append(f.liveOrders, f.nextOrder)
		f.nextOrder++
	}
	for i := 0; i < rd.newLines; i++ {
		tup := f.lines.NewTuple()
		f.lines.PutInt64(tup, 0, f.nextLine)
		f.lines.PutInt64(tup, 1, 1+rng.Int63n(f.nextOrder))
		f.lines.PutFloat64(tup, 2, float64(rng.Intn(1000))/10)
		add(tblLines, proplog.Insert, f.nextLine, tup)
		f.nextLine++
	}
	f.replica.ApplyUpdates([]proplog.Batch{buf.Take()}, f.vid)
	if _, err := f.replica.ApplyPending(f.vid); err != nil {
		t.Fatal(err)
	}
}

// queries builds the batch: the full chain grouped by region with a
// filter on the last step (folded through both links), the same chain cut
// after customers with a filter there, and a count of lines with an
// order. All three share the root step; the first two share the link
// orders → customers.
func (f *linkFixture) queries(region int64) []*Query {
	toOrder := Probe{Table: tblLOrders, From: -1, Key: []KeyField{KeyCol(1, 0)}}
	toCust := Probe{Table: tblLCusts, From: 0, Key: []KeyField{KeyCol(1, 0)}}
	toRegion := Probe{Table: tblRegions, From: 1, Key: []KeyField{KeyCol(1, 0)}}
	amount := SumCol(2)
	notRegion := toRegion
	notRegion.Where = []Pred{Not(CmpInt(0, EQ, region))}
	inRegion := toCust
	inRegion.Where = []Pred{CmpInt(1, EQ, region)}
	return []*Query{
		{Name: "byRegion", Driver: tblLines, Probes: []Probe{toOrder, toCust, notRegion},
			GroupBy: []GroupCol{{From: 2, Col: 0}}, Aggs: []AggSpec{SumCol(2), {Kind: Count}}},
		{Name: "inRegion", Driver: tblLines, Probes: []Probe{toOrder, inRegion},
			Aggs: []AggSpec{amount, {Kind: Count}}},
		{Name: "withOrder", Driver: tblLines, Probes: []Probe{toOrder},
			Aggs: []AggSpec{SumCol(2), {Kind: Count}}},
	}
}

// linkState is what decides whether a link array may be kept: the data
// versions of its two tables, and the array the engine holds.
type linkState struct {
	parent, child uint64
	links         *linkArray
}

func (f *linkFixture) linkStates(e *Engine) map[string]linkState {
	sv := f.replica.PinSnapshot()
	defer sv.Unpin()
	out := map[string]linkState{}
	for name, l := range map[string]linkID{
		"order.cust":  {tblLOrders, tblLCusts, keySig{n: 1, fields: [MaxKeyFields]KeyField{KeyCol(1, 0)}}},
		"cust.region": {tblLCusts, tblRegions, keySig{n: 1, fields: [MaxKeyFields]KeyField{KeyCol(1, 0)}}},
	} {
		e.mu.Lock()
		ce := e.cache[l]
		e.mu.Unlock()
		out[name] = linkState{sv.Table(l.parent).Version(), sv.Table(l.child).Version(), ce.val}
	}
	return out
}

// TestLinksFollowApply: between batches, apply rounds insert into every
// table of a chain of linked steps, delete rows and reuse their slots.
// After each round the long-lived engine — whose link arrays outlive the
// batches — answers as a fresh engine does, and it has remade
// a link array exactly when the data version of the link's parent or
// child table changed.
func TestLinksFollowApply(t *testing.T) {
	f := newLinkFixture(t)
	rng := rand.New(rand.NewSource(5))
	rounds := []round{
		{newCusts: 40, newOrders: 120, newLines: 600},
		{newLines: 200}, // the driver alone: every link stays
		{newOrders: 30}, // the first link's parent
		{newCusts: 10},  // its child, and the second link's parent
		{delOrders: 25, newOrders: 25, newLines: 50}, // slots of deleted orders reused
		{delCusts: 8, newCusts: 8},                   // the same one link down
		{},                                           // nothing at all
		{delOrders: 10, delCusts: 5, newLines: 100},
		{newCusts: 5, newOrders: 40, delOrders: 40, newLines: 100},
	}
	for _, workers := range []int{1, 2} {
		e := NewEngine(f.replica, workers)
		e.MorselTuples = 64
		var before map[string]linkState
		for ri, rd := range rounds {
			f.apply(t, rng, rd)
			label := fmt.Sprintf("workers=%d round %d", workers, ri)
			region := int64(ri % nRegions)
			got := e.RunBatch(f.queries(region), 0)
			fresh := NewEngine(f.replica, 1)
			want := fresh.RunBatch(f.queries(region), 0)
			compareResults(t, label, got, want)
			if ri == 0 && (got[0].Rows == 0 || got[1].Rows == 0 || got[2].Rows == got[0].Rows) {
				t.Fatalf("%s: degenerate fixture: rows %d / %d / %d", label, got[0].Rows, got[1].Rows, got[2].Rows)
			}
			after := f.linkStates(e)
			for keyID, a := range after {
				b, seen := before[keyID]
				if !seen {
					continue
				}
				changed := a.parent != b.parent || a.child != b.child
				if rebuilt := a.links != b.links; rebuilt != changed {
					t.Fatalf("%s link %s: rebuilt=%v, but table versions went (%d,%d) → (%d,%d)",
						label, keyID, rebuilt, b.parent, b.child, a.parent, a.child)
				}
			}
			before = after
		}
	}
}
