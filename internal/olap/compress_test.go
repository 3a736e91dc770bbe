package olap

import (
	"math"
	"testing"

	"batchdb/internal/proplog"
)

// TestReplicaCompressionLifecycle drives a compressed replica through
// the full maintenance cycle — load, synopsis activation, apply rounds
// with inserts/patches/deletes — and proves the encoded vectors are
// fresh (never stale) after every quiesced window, with FilterRange
// agreeing with the raw rows throughout.
func TestReplicaCompressionLifecycle(t *testing.T) {
	s := kvSchema()
	r := NewReplica(2)
	r.EnableZoneMaps(64)
	r.EnableCompression()
	tbl := r.CreateTable(s, col0Key(s), 64)

	for i := int64(1); i <= 300; i++ {
		if err := r.LoadTuple(1, uint64(i), tuple(s, i, i%17)); err != nil {
			t.Fatal(err)
		}
	}
	// Query interest in column v, then the quiesced activation sweep:
	// it must both build the synopses and encode every block.
	tbl.RequestSynopses([]ColRange{{Col: 1, Lo: 0, Hi: 16}})
	r.ActivateSynopses()
	for _, p := range tbl.Partitions {
		if !p.Compressed() {
			t.Fatal("partition not compressed after EnableCompression")
		}
		if p.enc.anyStale {
			t.Fatal("stale vectors after activation sweep")
		}
	}

	checkParity := func(stage string) {
		t.Helper()
		served := 0
		for _, p := range tbl.Partitions {
			if p.enc.anyStale {
				t.Fatalf("%s: stale vectors outside a quiesced window", stage)
			}
			r := []ColRange{{Col: 1, Lo: 3, Hi: 9}}
			for b := 0; b*64 < p.Slots(); b++ {
				lo, hi := b*64, min((b+1)*64, p.Slots())
				var sel [1]uint64
				if !p.FilterRange(lo, hi, r, sel[:]) {
					continue
				}
				served++
				for i := lo; i < hi; i++ {
					if p.rowIDs[i] == 0 {
						continue
					}
					v := s.GetInt64(p.data[i*p.tupleSize:(i+1)*p.tupleSize], 1)
					want := v >= 3 && v <= 9
					got := sel[(i-lo)>>6]>>(uint(i-lo)&63)&1 == 1
					if got != want {
						t.Fatalf("%s: slot %d verdict %v, raw %v (v=%d)", stage, i, got, want, v)
					}
				}
			}
		}
		if served == 0 {
			t.Fatalf("%s: FilterRange served no blocks — parity check is vacuous", stage)
		}
	}
	checkParity("activated")

	// Apply rounds: each mixes inserts (growing new blocks and recycling
	// freed slots), patches on the encoded column, and deletes. The
	// apply step re-encodes inside the same quiesced window that
	// resummarizes, so vectors must be fresh after every round.
	vid := uint64(0)
	next := uint64(1000)
	var live []uint64
	for i := int64(1); i <= 300; i++ {
		live = append(live, uint64(i))
	}
	for round := 0; round < 5; round++ {
		buf := proplog.NewBuffer(0)
		for i := 0; i < 40; i++ {
			vid++
			switch i % 4 {
			case 0, 1: // insert (recycles slots freed by earlier deletes)
				buf.Add(1, mkEntry(vid, proplog.Insert, next, 0, tuple(s, int64(next), int64(i%23))))
				live = append(live, next)
				next++
			case 2: // patch the encoded column of a live row
				rid := live[(round*37+i)%len(live)]
				buf.Add(1, mkEntry(vid, proplog.Update, rid, uint32(s.Offset(1)), u64le(int64(i%13))))
			default: // delete a live row
				j := (round*53 + i) % len(live)
				rid := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				buf.Add(1, mkEntry(vid, proplog.Delete, rid, 0, nil))
			}
		}
		r.ApplyUpdates([]proplog.Batch{buf.Take()}, vid)
		if _, err := r.ApplyPending(vid); err != nil {
			t.Fatal(err)
		}
		checkParity("applied")
	}

	// CompressionStats reflects the encoded reality: blocks counted,
	// encoded footprint no larger than raw for this low-cardinality data.
	stats := tbl.CompressionStats()
	if len(stats) == 0 {
		t.Fatal("no compression stats")
	}
	for _, cs := range stats {
		if cs.Blocks <= 0 {
			t.Fatalf("column %d: %d blocks", cs.Col, cs.Blocks)
		}
		if cs.EncodedBytes > cs.RawBytes {
			t.Fatalf("column %d: encoded %d > raw %d", cs.Col, cs.EncodedBytes, cs.RawBytes)
		}
		kinds := 0
		for _, n := range cs.Kinds {
			kinds += n
		}
		if kinds != cs.Blocks {
			t.Fatalf("column %d: kind counts %v sum %d != blocks %d", cs.Col, cs.Kinds, kinds, cs.Blocks)
		}
	}
}

// TestEnableCompressionRequiresZoneMaps pins the layering rule: the
// encoded vectors ride on the zone-map block structure, so without zone
// maps (or with sub-64-slot blocks) EnableCompression is a no-op.
func TestEnableCompressionRequiresZoneMaps(t *testing.T) {
	s := kvSchema()
	p := NewPartition(s, 16)
	p.EnableCompression()
	if p.Compressed() {
		t.Fatal("compression attached without zone maps")
	}
	p2 := NewPartition(s, 16)
	p2.EnableZoneMap(32) // below the 64-slot bitmap-alignment floor
	p2.EnableCompression()
	if p2.Compressed() {
		t.Fatal("compression attached on sub-64-slot blocks")
	}
}

// TestSumLiveRange exercises the encoded-block aggregate reader
// directly against a raw recomputation: fully-live blocks are served
// for both int and float columns, and any block with a dead slot
// refuses (the encoded image hides which slots died).
func TestSumLiveRange(t *testing.T) {
	s := zmTestSchema()
	r := NewReplica(1)
	r.EnableZoneMaps(64)
	r.EnableCompression()
	tbl := r.CreateTable(s, col0Key(s), 64)
	const n = 256
	for i := int64(1); i <= n; i++ {
		tup := s.NewTuple()
		s.PutInt64(tup, 0, i)
		s.PutInt32(tup, 1, int32(i%7))
		s.PutFloat64(tup, 2, float64(i%5)*0.25) // few distinct values: always encodes
		s.PutInt64(tup, 5, i*3)
		if err := r.LoadTuple(900, uint64(i), tup); err != nil {
			t.Fatal(err)
		}
	}
	tbl.RequestSynopses([]ColRange{{Col: 2}, {Col: 5}})
	r.ActivateSynopses()
	p := tbl.Partitions[0]

	check := func(lo, hi, col int) {
		t.Helper()
		sum, rows, ok := p.SumLiveRange(lo, hi, col)
		if !ok {
			t.Fatalf("SumLiveRange(%d,%d,col=%d) refused on fully-live blocks", lo, hi, col)
		}
		var wantSum float64
		var wantRows int64
		for i := lo; i < hi; i++ {
			tup, live := p.Get(uint64(i + 1)) // rowID = slot+1 under sequential load
			if !live {
				continue
			}
			wantRows++
			if col == 2 {
				wantSum += s.GetFloat64(tup, 2)
			} else {
				wantSum += float64(s.GetInt64(tup, col))
			}
		}
		if rows != wantRows || math.Abs(sum-wantSum) > 1e-9*(1+math.Abs(wantSum)) {
			t.Fatalf("SumLiveRange(%d,%d,col=%d) = (%f,%d), want (%f,%d)", lo, hi, col, sum, rows, wantSum, wantRows)
		}
	}
	check(0, 256, 2) // float column: ord-key decode path
	check(0, 256, 5) // int column
	check(64, 192, 5)

	if _, _, ok := p.SumLiveRange(3, 64, 5); ok {
		t.Fatal("unaligned lo accepted")
	}
	if _, _, ok := p.SumLiveRange(0, 64, 3); ok {
		t.Fatal("synopsis-less column accepted")
	}

	// Kill one tuple: its block must refuse, aligned neighbors still serve.
	p.Delete(10)
	if _, _, ok := p.SumLiveRange(0, 64, 5); ok {
		t.Fatal("partially-live block served an encoded sum")
	}
	check(64, 128, 5)
}
