// elastic_replicas demonstrates BatchDB's elasticity (paper §3.2, §6):
// a primary feeding multiple remote OLAP replicas over the network
// transport. Replicas attach at runtime — each bootstraps from a
// snapshot and then receives the same pushed update stream — and every
// replica answers analytical queries with the batch-at-a-time
// semantics of the local replica.
//
//	go run ./examples/elastic_replicas
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"batchdb"
)

func main() {
	db, err := batchdb.Open(batchdb.Config{PushPeriod: 20 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := batchdb.NewSchema(1, "readings", []batchdb.Column{
		{Name: "id", Type: batchdb.Int64},
		{Name: "sensor", Type: batchdb.Int64},
		{Name: "value", Type: batchdb.Float64},
	}, []int{0})
	key := func(tup []byte) uint64 { return uint64(schema.GetInt64(tup, 0)) }
	readings, err := db.CreateTable(schema, key, batchdb.TableOptions{Replicate: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := db.Register("record", func(tx *batchdb.Txn, args []byte) ([]byte, error) {
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, int64(binary.LittleEndian.Uint64(args)))
		schema.PutInt64(tup, 1, int64(binary.LittleEndian.Uint64(args[8:])))
		schema.PutFloat64(tup, 2, float64(binary.LittleEndian.Uint64(args[16:]))/100)
		err := tx.Insert(readings.OLTP, tup)
		return nil, err
	}); err != nil {
		log.Fatal(err)
	}
	// Pre-load some history so the bootstrap snapshot is non-trivial.
	for i := int64(1); i <= 5000; i++ {
		tup := schema.NewTuple()
		schema.PutInt64(tup, 0, i)
		schema.PutInt64(tup, 1, i%16)
		schema.PutFloat64(tup, 2, float64(i%100))
		if err := readings.Load(tup); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Start(); err != nil {
		log.Fatal(err)
	}
	addr, err := db.ServeReplicas("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary serving replicas on %s\n", addr)

	// Attach three replica nodes at runtime; each bootstraps over the
	// (TCP-modeled RDMA) transport.
	var nodes []*batchdb.ReplicaNode
	for i := 0; i < 3; i++ {
		node, err := batchdb.ConnectReplica(addr, batchdb.ReplicaNodeConfig{Partitions: 4},
			[]batchdb.ReplicaTable{{Schema: schema, CapacityHint: 8192}})
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		nodes = append(nodes, node)
		fmt.Printf("replica %d attached and bootstrapped (%d rows)\n",
			i, node.Replica().Table(1).Live())
	}

	// Keep writing while the replicas serve queries.
	args := make([]byte, 24)
	for i := int64(5001); i <= 6000; i++ {
		binary.LittleEndian.PutUint64(args, uint64(i))
		binary.LittleEndian.PutUint64(args[8:], uint64(i%16))
		binary.LittleEndian.PutUint64(args[16:], uint64(i*3))
		if r := db.Exec("record", args); r.Err != nil {
			log.Fatal(r.Err)
		}
	}

	q := &batchdb.Query{
		Name: "count", Driver: 1,
		Aggs: []batchdb.AggSpec{{Kind: batchdb.Count}},
	}
	for i, node := range nodes {
		res, err := node.Query(q)
		if err != nil || res.Err != nil {
			log.Fatal(err, res.Err)
		}
		st := node.TransportStats()
		fmt.Printf("replica %d sees %0.f rows (transport: %d msgs, %d buffers reused)\n",
			i, res.Values[0], st.Msgs.Load(), st.BuffersReused.Load())
	}
	local, err := db.Query(q)
	if err != nil || local.Err != nil {
		log.Fatal(err, local.Err)
	}
	fmt.Printf("local replica sees %0.f rows\n", local.Values[0])

	// Fault drill: sever replica 0's connection mid-stream. The node
	// keeps serving its last consistent snapshot (degraded mode) while
	// the supervisor reconnects with backoff and resyncs from a fresh
	// snapshot; no update is lost and none is applied twice.
	victim := nodes[0]
	victim.KillConnection()
	for i := int64(6001); i <= 7000; i++ {
		binary.LittleEndian.PutUint64(args, uint64(i))
		binary.LittleEndian.PutUint64(args[8:], uint64(i%16))
		binary.LittleEndian.PutUint64(args[16:], uint64(i*3))
		if r := db.Exec("record", args); r.Err != nil {
			log.Fatal(r.Err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for victim.Replica().AppliedVID() < db.LatestVID() {
		if time.Now().After(deadline) {
			log.Fatal("replica 0 did not converge after reconnect")
		}
		if _, err := victim.Query(q); err != nil {
			log.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := victim.Status()
	res, err := victim.Query(q)
	if err != nil || res.Err != nil {
		log.Fatal(err, res.Err)
	}
	fmt.Printf("replica 0 recovered: %0.f rows, connected=%v, %d reconnects, %d resyncs, degraded %v\n",
		res.Values[0], st.Connected, st.Reconnects, st.Resyncs, st.Degraded.Round(time.Millisecond))
	fmt.Printf("primary: %d replicas served, %d active, %d disconnects\n",
		db.ReplicaServerStats().Served.Load(),
		db.ReplicaServerStats().Active.Load(),
		db.ReplicaServerStats().Disconnects.Load())
}
