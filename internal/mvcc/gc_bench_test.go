package mvcc

import (
	"fmt"
	"testing"
)

// BenchmarkChainListAppend takes and gives back one scan-list slot per
// iteration with n chains already listed. The cost must not depend on n
// (the two sizes stay within 2x of each other): a slot is addressed
// through the chunk directory, not by walking the chunks.
func BenchmarkChainListAppend(b *testing.B) {
	for _, n := range []int{1_000, 1_000_000} {
		b.Run(fmt.Sprintf("slots=%d", n), func(b *testing.B) {
			l := newChainList()
			for i := 0; i < n; i++ {
				l.append(&Chain{Key: uint64(i)})
			}
			c := &Chain{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.append(c)
				l.release(c.slot)
			}
			if l.slots() != n+1 || l.live() != n {
				b.Fatalf("%d slots, %d live after recycling one slot over %d chains", l.slots(), l.live(), n)
			}
		})
	}
}

// BenchmarkGCPerTxn runs a constant-size transaction (one insert, one
// delete, four updates over 100k rows) under each collection policy:
// the write-set collector at the engine's default pace, the full sweep
// at the pace the dispatcher used to run it, and none. The difference to
// gc=off is what garbage collection costs a transaction.
func BenchmarkGCPerTxn(b *testing.B) {
	const rows = 100_000
	for _, policy := range []string{"collector", "sweep", "off"} {
		b.Run("gc="+policy, func(b *testing.B) {
			s, tbl, _ := gcTable()
			load := s.Begin()
			for k := int64(0); k < rows; k++ {
				if err := load.Insert(tbl, gcTuple(tbl, k, gcRow{k % 7, 0})); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := load.Commit(); err != nil {
				b.Fatal(err)
			}
			g := s.NewCollector()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oldest, next := int64(i), int64(i)+rows
				tx := s.Begin()
				err := tx.Insert(tbl, gcTuple(tbl, next, gcRow{next % 7, 0}))
				if err == nil {
					err = tx.Delete(tbl, uint64(oldest))
				}
				for j := int64(1); j <= 4 && err == nil; j++ {
					k := oldest + j*(rows/5)
					err = tx.Update(tbl, uint64(k), []int{2}, func(tup []byte) { tbl.Schema.PutInt64(tup, 2, int64(i)) })
				}
				if err != nil {
					b.Fatal(err)
				}
				writes := tx.Writes()
				cv, err := tx.Commit()
				if err != nil {
					b.Fatal(err)
				}
				switch policy {
				case "collector":
					if g.Committed(writes, cv); i%64 == 63 {
						g.Collect()
					}
				case "sweep":
					if i%5000 == 4999 {
						s.CollectGarbage()
					}
				}
			}
		})
	}
}
