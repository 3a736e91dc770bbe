// freshness measures BatchDB's data freshness: the time from a
// transaction's commit until an analytical query can observe its
// effects. Per the paper (§3.2), updates are pushed at the first batch
// boundary after the push period (200 ms default, configurable), or
// immediately when the OLAP dispatcher asks — so perceived freshness is
// dominated by query response time, not by replication lag.
//
//	go run ./examples/freshness
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"batchdb"
)

func main() {
	for _, push := range []time.Duration{200 * time.Millisecond, 20 * time.Millisecond} {
		lag := measure(push)
		fmt.Printf("push period %6s: commit-to-visible lag %v\n", push, lag)
	}
	fmt.Println("\nNote: the lag is bounded by the query batch turnaround, not the push")
	fmt.Println("period — the OLAP dispatcher forces a push when it starts a batch.")
}

func measure(pushPeriod time.Duration) time.Duration {
	db, err := batchdb.Open(batchdb.Config{PushPeriod: pushPeriod})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := batchdb.NewSchema(1, "events", []batchdb.Column{
		{Name: "id", Type: batchdb.Int64},
		{Name: "v", Type: batchdb.Int64},
	}, []int{0})
	events, err := db.CreateTable(schema, func(tup []byte) uint64 {
		return uint64(schema.GetInt64(tup, 0))
	}, batchdb.TableOptions{Replicate: true})
	if err != nil {
		log.Fatal(err)
	}
	err = db.Register("append", func(tx *batchdb.Txn, args []byte) ([]byte, error) {
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, int64(binary.LittleEndian.Uint64(args)))
		schema.PutInt64(tup, 1, 1)
		err := tx.Insert(events.OLTP, tup)
		return nil, err
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := db.Start(); err != nil {
		log.Fatal(err)
	}

	count := func() float64 {
		res, err := db.Query(&batchdb.Query{
			Name: "count", Driver: 1,
			Aggs: []batchdb.AggSpec{{Kind: batchdb.Count}},
		})
		if err != nil || res.Err != nil {
			log.Fatal(err, res.Err)
		}
		return res.Values[0]
	}

	// Commit events one at a time and measure how long until a query
	// sees each one.
	var total time.Duration
	const n = 50
	args := make([]byte, 8)
	for i := 1; i <= n; i++ {
		binary.LittleEndian.PutUint64(args, uint64(i))
		start := time.Now()
		if r := db.Exec("append", args); r.Err != nil {
			log.Fatal(r.Err)
		}
		for count() < float64(i) {
			// Query again: each call starts a new batch on the latest
			// snapshot, so at most one retry is ever needed.
		}
		total += time.Since(start)
	}
	return total / n
}
