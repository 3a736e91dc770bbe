package batchdb_test

import (
	"encoding/binary"
	"fmt"
	"log"

	"batchdb"
)

// Example shows the single system interface end to end: one table
// replicated to the analytical side, a stored procedure on the OLTP
// path, and an aggregate query on the OLAP path observing the
// procedure's effects.
func Example() {
	db, err := batchdb.Open(batchdb.Config{OLTPWorkers: 2, OLAPWorkers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := batchdb.NewSchema(1, "counters", []batchdb.Column{
		{Name: "id", Type: batchdb.Int64},
		{Name: "n", Type: batchdb.Int64},
	}, []int{0})
	counters, err := db.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, batchdb.TableOptions{Replicate: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := db.Register("bump", func(tx *batchdb.Txn, args []byte) ([]byte, error) {
		id := binary.LittleEndian.Uint64(args)
		return nil, tx.Update(counters.OLTP, id, []int{1}, func(tup []byte) {
			schema.PutInt64(tup, 1, schema.GetInt64(tup, 1)+1)
		})
	}); err != nil {
		log.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, i)
		if err := counters.Load(tup); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Start(); err != nil {
		log.Fatal(err)
	}

	args := make([]byte, 8)
	for i := 0; i < 10; i++ {
		binary.LittleEndian.PutUint64(args, uint64(i%3)+1)
		if r := db.Exec("bump", args); r.Err != nil {
			log.Fatal(r.Err)
		}
	}

	res, err := db.Query(&batchdb.Query{
		Name:   "total",
		Driver: 1,
		Where:  []batchdb.Pred{batchdb.CmpInt(1, batchdb.GT, 0)},
		Aggs:   []batchdb.AggSpec{batchdb.SumCol(1), {Kind: batchdb.Count}},
	})
	if err != nil || res.Err != nil {
		log.Fatal(err, res.Err)
	}
	fmt.Printf("total bumps: %.0f over %.0f counters\n", res.Values[0], res.Values[1])
	// Output: total bumps: 10 over 3 counters
}
