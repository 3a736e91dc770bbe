package chbench

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"batchdb/internal/olap/exec"
	"batchdb/internal/storage"
	"batchdb/internal/tpcc"
)

// chSchemas maps the CH tables to their schemas.
func chSchemas(s *tpcc.Schemas) map[storage.TableID]*storage.Schema {
	return map[storage.TableID]*storage.Schema{
		tpcc.TStock: s.Stock, tpcc.TCustomer: s.Customer, tpcc.TOrder: s.Order, tpcc.TOrderLine: s.OrderLine,
		tpcc.TItem: s.Item, tpcc.TSupplier: s.Supplier, tpcc.TNation: s.Nation, tpcc.TRegion: s.Region,
	}
}

// randomTuples returns n tuples of s with every numeric column random,
// from a generator seeded by the table: every caller sees the same rows
// of a table.
func randomTuples(s *storage.Schema, n int) [][]byte {
	rng := rand.New(rand.NewSource(int64(s.ID)))
	out := make([][]byte, n)
	for i := range out {
		tup := s.NewTuple()
		for c, col := range s.Columns {
			switch col.Type {
			case storage.Int64, storage.Time:
				s.PutInt64(tup, c, rng.Int63n(1<<15))
			case storage.Int32:
				s.PutInt32(tup, c, rng.Int31n(1<<15))
			case storage.Float64:
				s.PutFloat64(tup, c, rng.Float64())
			}
		}
		out[i] = tup
	}
	return out
}

// declaredKeys remembers, per declared step, the keys it produced over
// the fixed sample of its parent table's rows — whichever probe of
// whichever template computed them first.
type declaredKeys map[string][]uint64

// checkDeclarations holds every probe of q that declares a KeyID to the
// promise behind it (exec.Probe.KeyID): computed from nothing but the
// row From names — the driver tuple, or joined[From] — its key equals
// what ProbeKey computes from the whole (driver, joined) combination,
// and equals what every other probe with the same declaration over the
// same parent table computes from the same row.
func checkDeclarations(q *exec.Query, schemas map[storage.TableID]*storage.Schema, seen declaredKeys) (err error) {
	const samples = 64
	at := "no probe"
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s %s: ProbeKey read what it did not declare: %v", q.Name, at, r)
		}
	}()
	drivers := randomTuples(schemas[q.Driver], samples)
	for pi := range q.Probes {
		pb := &q.Probes[pi]
		if pb.KeyID == "" {
			continue
		}
		at = fmt.Sprintf("probe %d (%s, From %d)", pi, pb.KeyID, pb.From)
		if pb.From < -1 || pb.From >= pi {
			return fmt.Errorf("%s %s: From is neither -1 nor an earlier probe", q.Name, at)
		}
		parent := q.Driver
		if pb.From >= 0 {
			parent = q.Probes[pb.From].Table
		}
		// Every joined row is a sample of its own table; a probe that
		// reads a row other than the one it declares sees different bytes.
		rows := make([][][]byte, pi)
		for j := range rows {
			rows[j] = randomTuples(schemas[q.Probes[j].Table], samples)
		}
		keys := make([]uint64, samples)
		for i := 0; i < samples; i++ {
			joined := make([][]byte, pi)
			for j := range joined {
				joined[j] = rows[j][i]
			}
			full := pb.ProbeKey(drivers[i], joined)
			if pb.From == -1 {
				keys[i] = pb.ProbeKey(drivers[i], nil)
			} else {
				only := make([][]byte, pb.From+1)
				only[pb.From] = joined[pb.From]
				keys[i] = pb.ProbeKey(nil, only)
			}
			if keys[i] != full {
				return fmt.Errorf("%s %s: key %d from the declared row alone, %d from the whole combination", q.Name, at, keys[i], full)
			}
		}
		id := fmt.Sprintf("%d→%d/%s", parent, pb.Table, pb.KeyID)
		if first, ok := seen[id]; !ok {
			seen[id] = keys
		} else if fmt.Sprint(first) != fmt.Sprint(keys) {
			return fmt.Errorf("%s %s: another probe declared as step %s computes different keys from the same rows", q.Name, at, id)
		}
	}
	return nil
}

// TestProbeDeclarationsMatchClosures: for every template, over seeded
// random tuples, the key reached through From/KeyID equals
// ProbeKey(driver, joined), and equal declarations mean equal keys
// across templates; every probe of the 14 templates declares one. A
// template whose declaration lies fails the same check.
func TestProbeDeclarationsMatchClosures(t *testing.T) {
	s := tpcc.NewSchemas()
	schemas := chSchemas(s)
	seen := declaredKeys{}
	for seed := int64(1); seed <= 3; seed++ {
		g := NewGen(s, seed)
		for _, name := range QueryNames {
			q := g.ByName(name)
			for pi := range q.Probes {
				if q.Probes[pi].KeyID == "" {
					t.Errorf("%s probe %d declares nothing: it runs per tuple and shares with nobody", name, pi)
				}
			}
			if err := checkDeclarations(q, schemas, seen); err != nil {
				t.Error(err)
			}
		}
	}
	// The twelve order-line templates share three root steps between them.
	var roots []string
	for id := range seen {
		if strings.HasPrefix(id, fmt.Sprintf("%d→", tpcc.TOrderLine)) {
			roots = append(roots, id)
		}
	}
	if len(roots) != 3 {
		t.Errorf("order-line templates declare %d distinct root steps %v, want 3 (order, item, supplier)", len(roots), roots)
	}

	liars := map[string]func(q *exec.Query){
		"reads the driver, declares joined[0]": func(q *exec.Query) {
			q.Probes[1].ProbeKey = func(d []byte, j [][]byte) uint64 {
				return uint64(s.OrderLine.GetInt64(d, tpcc.OLOID)) + uint64(s.Order.GetInt64(j[0], tpcc.OCID))
			}
		},
		"names the wrong earlier probe": func(q *exec.Query) { q.Probes[2].From = 0 },
		"names a later probe":           func(q *exec.Query) { q.Probes[1].From = 2 },
		"computes another key under a shared KeyID": func(q *exec.Query) {
			q.Probes[1].ProbeKey = func(_ []byte, j [][]byte) uint64 {
				o := j[0]
				return tpcc.CustomerKey(s.Order.GetInt64(o, tpcc.OWID), s.Order.GetInt64(o, tpcc.ODID), s.Order.GetInt64(o, tpcc.OID))
			}
		},
	}
	for what, lie := range liars {
		q := NewGen(s, 1).ByName("Q3")
		lie(q)
		if err := checkDeclarations(q, schemas, seen); err == nil {
			t.Errorf("a Q3 that %s passed the check", what)
		}
	}
}
