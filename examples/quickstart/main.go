// Quickstart: define a table, register a stored procedure, run
// transactions and an analytical query through BatchDB's single system
// interface.
//
//	go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"batchdb"
)

func main() {
	db, err := batchdb.Open(batchdb.Config{OLTPWorkers: 2, OLAPWorkers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// One replicated table: accounts(id, balance, region).
	schema := batchdb.NewSchema(1, "accounts", []batchdb.Column{
		{Name: "id", Type: batchdb.Int64},
		{Name: "balance", Type: batchdb.Float64},
		{Name: "region", Type: batchdb.Int64},
	}, []int{0})
	accounts, err := db.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, batchdb.TableOptions{Replicate: true})
	if err != nil {
		log.Fatal(err)
	}

	// A stored procedure: deposit(id, amount). All inputs arrive in the
	// argument record, so the procedure is deterministic — that is what
	// makes BatchDB's command logging sufficient for recovery.
	err = db.Register("deposit", func(tx *batchdb.Txn, args []byte) ([]byte, error) {
		id := binary.LittleEndian.Uint64(args)
		amount := float64(int64(binary.LittleEndian.Uint64(args[8:]))) / 100
		return nil, tx.Update(accounts.OLTP, id, []int{1}, func(tup []byte) {
			schema.PutFloat64(tup, 1, schema.GetFloat64(tup, 1)+amount)
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	// Initial load happens before Start (VID 0 state).
	for i := int64(1); i <= 1000; i++ {
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, i)
		schema.PutFloat64(tup, 1, 100)
		schema.PutInt64(tup, 2, i%5)
		if err := accounts.Load(tup); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Start(); err != nil {
		log.Fatal(err)
	}

	// OLTP path: deposits into region-0 accounts.
	args := make([]byte, 16)
	for i := 0; i < 200; i++ {
		binary.LittleEndian.PutUint64(args, uint64(i%1000)+1)
		binary.LittleEndian.PutUint64(args[8:], uint64(2500)) // 25.00
		if r := db.Exec("deposit", args); r.Err != nil {
			log.Fatal(r.Err)
		}
	}

	// OLAP path: SUM(balance) GROUP BY-style per-region query. The
	// query runs on the secondary replica, one batch at a time, on the
	// latest committed snapshot — the deposits above are visible.
	for region := int64(0); region < 5; region++ {
		q := &batchdb.Query{
			Name:   fmt.Sprintf("region-%d", region),
			Driver: 1,
			Where:  []batchdb.Pred{batchdb.CmpInt(2, batchdb.EQ, region)},
			Aggs:   []batchdb.AggSpec{batchdb.SumCol(1), {Kind: batchdb.Count}},
		}
		res, err := db.Query(q)
		if err != nil || res.Err != nil {
			log.Fatal(err, res.Err)
		}
		fmt.Printf("region %d: %3.0f accounts, total balance %10.2f\n",
			region, res.Values[1], res.Values[0])
	}
	fmt.Printf("latest committed snapshot VID: %d\n", db.LatestVID())
}
