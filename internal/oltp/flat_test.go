package oltp_test

import (
	"testing"

	"batchdb/internal/mvcc"
	"batchdb/internal/obs"
	"batchdb/internal/oltp"
	"batchdb/internal/tpcc"
)

// The engine must not slow as it runs: in constant-size TPC-C the work a
// transaction causes — scan-list slots, versions kept per row, chains
// waiting for GC, chains GC looks at per commit — has to be the same in
// the last tenth of a run as in the first. The run is a fixed number of
// transactions from one session and the counters are the engine's own,
// so the comparison does not depend on the host's speed.
//
// Slots and GC visits per commit are smooth and are compared first decile
// against last. Queue depth and chain length saw-tooth with the GC pace
// (they are sampled anywhere between two collections), so each decile is
// held to the bound the pace implies instead.
func TestWorkPerTxnStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 20000 TPC-C transactions")
	}
	const (
		deciles, perDecile = 10, 2000
		pace               = 64  // oltp.Config.GCEveryTxns, at its default
		maxWrites          = 160 // chains the largest transaction (Delivery, 10 districts) writes
	)

	db := tpcc.NewDB(tpcc.BenchScale(1))
	if err := tpcc.Generate(db, 1); err != nil {
		t.Fatal(err)
	}
	e, err := oltp.New(db.Store, oltp.Config{Workers: 2, GCEveryTxns: pace})
	if err != nil {
		t.Fatal(err)
	}
	tpcc.RegisterProcs(e, db, true)
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	e.Start()
	defer e.Close()

	gauge := func(name string) float64 {
		for _, s := range reg.Samples() {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("metric %s is not exported", name)
		return 0
	}
	type sample struct {
		slots       int     // scan-list slots of the tables constant-size mode trims
		queue       float64 // chains waiting to be revisited
		maxVersions int     // longest version chain anywhere
		visited     float64 // chains GC examined per commit in this decile
	}
	trimmed := []*mvcc.Table{db.Order, db.OrderLine, db.NewOrder} // history only grows, by design
	measure := func(visited0 uint64, commits int) sample {
		var s sample
		for _, tbl := range trimmed {
			s.slots += tbl.ScanListSlots()
		}
		s.queue = gauge("batchdb_mvcc_gc_retire_queue")
		for _, tbl := range db.Store.Tables() {
			tbl.ScanChains(func(c *mvcc.Chain) bool {
				n := 0
				for r := c.Head(); r != nil; r = r.Older() {
					n++
				}
				s.maxVersions = max(s.maxVersions, n)
				return true
			})
		}
		s.visited = float64(db.Store.ChainsVisited()-visited0) / float64(commits)
		return s
	}

	driver := tpcc.NewDriver(db.Scale, 7)
	var samples [deciles]sample
	for d := range samples {
		visited0, commits := db.Store.ChainsVisited(), 0
		for i := 0; i < perDecile; i++ {
			proc, args := driver.Next()
			if resp := e.Exec(proc, args); resp.Err == nil && resp.CommitVID != 0 {
				commits++
			}
		}
		samples[d] = measure(visited0, commits)
		t.Logf("decile %d: %+v", d+1, samples[d])
	}

	first, last := samples[0], samples[deciles-1]
	if float64(last.slots) > 1.1*float64(first.slots) {
		t.Errorf("scan-list slots grew from %d to %d: retired rows' slots are not being reused", first.slots, last.slots)
	}
	for d, s := range samples {
		// A row updated by every transaction gains one version per commit
		// until the next collection, plus the one every snapshot reads.
		if s.maxVersions > pace+2 {
			t.Errorf("decile %d: a row keeps %d versions, more than one GC period's worth (%d)", d+1, s.maxVersions, pace+2)
		}
		if s.queue > pace*maxWrites {
			t.Errorf("decile %d: %.0f chains wait for GC, more than one GC period can write (%d)", d+1, s.queue, pace*maxWrites)
		}
	}
	if last.visited > 1.25*first.visited {
		t.Errorf("chains GC visits per commit grew from %.1f to %.1f", first.visited, last.visited)
	}
	// The gauges the investigation needed are there, and they agree with
	// the store.
	if got, want := gauge("batchdb_mvcc_chains_retired_total"), float64(db.Store.ChainsRetired()); got > want || got == 0 {
		t.Errorf("batchdb_mvcc_chains_retired_total = %.0f, the store says %.0f", got, want)
	}
	for _, name := range []string{"batchdb_mvcc_scanlist_slots", "batchdb_mvcc_chains_live", "batchdb_mvcc_versions_unlinked_total"} {
		if gauge(name) <= 0 {
			t.Errorf("%s is not positive after %d transactions", name, deciles*perDecile)
		}
	}
	if lag := gauge("batchdb_mvcc_gc_horizon_lag"); lag != 0 {
		t.Errorf("batchdb_mvcc_gc_horizon_lag = %.0f with no transaction running", lag)
	}
}
