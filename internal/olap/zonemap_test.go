package olap

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"batchdb/internal/storage"
)

func zmTestSchema() *storage.Schema {
	return storage.NewSchema(900, "zmprop", []storage.Column{
		{Name: "id", Type: storage.Int64},
		{Name: "a", Type: storage.Int32},
		{Name: "b", Type: storage.Float64},
		{Name: "t", Type: storage.Time},
		{Name: "s", Type: storage.String, Size: 12},
		{Name: "c", Type: storage.Int64},
	}, []int{0})
}

// zmCheck compares every active column's synopsis — bounds, support
// counts — and every block's live count against a from-scratch
// re-derivation using the schema's own ord-key decoder.
func zmCheck(t *testing.T, p *Partition) {
	t.Helper()
	z := p.zm
	if z.anyDirty {
		t.Fatalf("dirty blocks survived ResummarizeDirty")
	}
	for b := range z.live {
		lo, hi := p.blockSlots(b)
		live := int32(0)
		for ci, col := range z.cols {
			bi := b*len(z.cols) + ci
			if z.active&(1<<uint(ci)) == 0 {
				continue
			}
			want := colSyn{min: math.MaxInt64, max: math.MinInt64}
			for i := lo; i < hi; i++ {
				if p.rowIDs[i] == 0 {
					continue
				}
				k := p.schema.OrdKey(p.data[i*p.tupleSize:(i+1)*p.tupleSize], col)
				if k < want.min {
					want.min, want.minCnt = k, 1
				} else if k == want.min {
					want.minCnt++
				}
				if k > want.max {
					want.max, want.maxCnt = k, 1
				} else if k == want.max {
					want.maxCnt++
				}
			}
			if got := z.syn[bi]; got != want {
				t.Fatalf("block %d col %d: synopsis %+v, recomputed %+v", b, col, got, want)
			}
			if z.dirtyCols[b]&(1<<uint(ci)) != 0 {
				t.Fatalf("block %d col %d: still marked dirty", b, col)
			}
		}
		for i := lo; i < hi; i++ {
			if p.rowIDs[i] != 0 {
				live++
			}
		}
		if z.live[b] != live {
			t.Fatalf("block %d: live %d, recomputed %d", b, z.live[b], live)
		}
	}
}

// TestZoneMapRandomApplyRounds drives a zone-mapped partition through
// randomized apply rounds — inserts (including free-slot reuse after
// deletes), field patches and deletes — with columns activated
// incrementally between rounds, and proves after each round's
// ResummarizeDirty that every active synopsis equals the
// recomputed-from-scratch one. It also spot-checks RangeMayMatch for
// false negatives: a block holding a matching tuple must never be
// disproved.
func TestZoneMapRandomApplyRounds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := zmTestSchema()
			p := NewPartition(s, 64)
			p.EnableZoneMap(64)
			nextRow := uint64(1)
			var liveRows []uint64

			randVal := func(tup []byte, col int) {
				switch s.Columns[col].Type {
				case storage.Int32:
					s.PutInt32(tup, col, int32(rng.Intn(41)-20))
				case storage.Float64:
					// A narrow value pool forces shared bounds (support
					// counts > 1) and negative values cross the ord-key
					// bit-flip boundary.
					s.PutFloat64(tup, col, float64(rng.Intn(21)-10)/4)
				case storage.String:
					copy(tup[s.Offset(col):], "x")
				default: // Int64, Time
					s.PutInt64(tup, col, int64(rng.Intn(31)-15))
				}
			}

			tup := s.NewTuple()
			numeric := s.NumericColumns()
			for round := 0; round < 30; round++ {
				// Activate a random extra column every few rounds; round 0
				// starts with one so maintenance is exercised throughout.
				if round%4 == 0 {
					p.ActivateSynopsisCols(1 << uint(rng.Intn(len(numeric))))
				}
				for op := 0; op < 120; op++ {
					switch k := rng.Intn(10); {
					case k < 5 || len(liveRows) == 0: // insert
						for c := range s.Columns {
							randVal(tup, c)
						}
						if err := p.Insert(nextRow, tup); err != nil {
							t.Fatal(err)
						}
						liveRows = append(liveRows, nextRow)
						nextRow++
					case k < 8: // patch one random column
						rid := liveRows[rng.Intn(len(liveRows))]
						col := rng.Intn(len(s.Columns))
						full := s.NewTuple()
						randVal(full, col)
						patch := full[s.Offset(col) : s.Offset(col)+s.ColSize(col)]
						if err := p.UpdateField(rid, uint32(s.Offset(col)), patch); err != nil {
							t.Fatal(err)
						}
					default: // delete (frees a slot later inserts reuse)
						i := rng.Intn(len(liveRows))
						rid := liveRows[i]
						liveRows[i] = liveRows[len(liveRows)-1]
						liveRows = liveRows[:len(liveRows)-1]
						if err := p.Delete(rid); err != nil {
							t.Fatal(err)
						}
					}
				}
				p.ResummarizeDirty()
				zmCheck(t, p)

				// No false negatives: for a random active column and random
				// interval, every block disproved by RangeMayMatch must hold
				// no matching live tuple.
				z := p.zm
				for trial := 0; trial < 20; trial++ {
					if len(z.actCols) == 0 {
						break
					}
					c := z.actCols[rng.Intn(len(z.actCols))]
					col := z.cols[c.ci]
					lo := int64(rng.Intn(31) - 15)
					r := []ColRange{{Col: col, Lo: lo, Hi: lo + int64(rng.Intn(8))}}
					for b := range z.live {
						blo, bhi := p.blockSlots(b)
						if p.RangeMayMatch(blo, bhi, r) {
							continue
						}
						for i := blo; i < bhi; i++ {
							if p.rowIDs[i] == 0 {
								continue
							}
							k := s.OrdKey(p.data[i*p.tupleSize:(i+1)*p.tupleSize], col)
							if k >= r[0].Lo && k <= r[0].Hi {
								t.Fatalf("block %d disproved but slot %d matches col %d key %d in [%d,%d]",
									b, i, col, k, r[0].Lo, r[0].Hi)
							}
						}
					}
				}
			}
		})
	}
}
