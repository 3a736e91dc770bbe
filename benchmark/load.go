package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"batchdb/internal/chbench"
	"batchdb/internal/ingest"
	"batchdb/internal/mvcc"
	"batchdb/internal/obs"
	"batchdb/internal/tpcc"
)

// outstanding is how many queries one analytical session has in flight
// at most: a dashboard's tiles. The waiters are parked, not runnable, so
// batches carry up to outstanding*AC queries for the executor to share.
const outstanding = 4

// sessions says which closed-loop session classes a phase runs.
type sessions struct{ txn, query, load bool }

// op is one completed request as its session saw it. For a query, vid
// is the snapshot it was answered on; for a write, the commit VID.
type op struct {
	start, end int64
	vid        uint64
	session    uint16
	seq        uint32
}

// phase is the record of one measured interval.
type phase struct {
	t0, t1    int64
	txns      []op // completed interactive transactions
	queries   []op
	acks      []op // every write acknowledgement (transactions and chunks), for staleness
	conflicts int64
	genBusy   int64 // ns the sessions spent generating and recording, not waiting
	sessBusy  int64 // ns of session wall time
	loadRows  int64 // bulk rows acknowledged inside [t0, t1]
	loads     []op  // one per Loader.Load call
	report    ingest.Report
	attempted int64 // requests issued, inside the window or not
	failed    int64
	failures  []string // the first few, for the report
}

func (ph *phase) seconds() float64 { return float64(ph.t1-ph.t0) / 1e9 }

// inWindow keeps the operations that completed inside the measured
// interval; the lead-in before t0 and the drain after t1 are dropped.
func (ph *phase) inWindow(ops []op) []op {
	out := ops[:0:0]
	for _, o := range ops {
		if o.end >= ph.t0 && o.end <= ph.t1 {
			out = append(out, o)
		}
	}
	return out
}

// runPhase drives the chosen sessions against s for leadIn+dur and
// returns what completed during the last dur. Sessions are seeded by
// (seed, index), so the same seed issues the same requests. begin and
// end, when set, run at the two edges of the measured interval.
func (s *sut) runPhase(name string, who sessions, seed int64, leadIn, dur time.Duration, begin, end func()) *phase {
	var (
		ph       = &phase{}
		stop     atomic.Bool
		maxAcked atomic.Uint64 // highest commit VID acknowledged so far
		mu       sync.Mutex    // guards ph while sessions hand in their records
		wg       sync.WaitGroup
	)
	fail := func(format string, a ...any) {
		mu.Lock()
		ph.failed++
		if len(ph.failures) < 10 {
			ph.failures = append(ph.failures, name+": "+fmt.Sprintf(format, a...))
		}
		mu.Unlock()
	}
	acked := func(vid uint64) {
		for {
			cur := maxAcked.Load()
			if vid <= cur || maxAcked.CompareAndSwap(cur, vid) {
				return
			}
		}
	}
	capHint := int(dur.Seconds()+leadIn.Seconds()+1) * 16384

	if who.txn {
		for i := 0; i < s.p; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				drv := tpcc.NewDriver(s.db.Scale, seed+int64(i))
				ops := make([]op, 0, capHint)
				var conflicts, gen int64
				born := now()
				last := born
				for seq := uint32(0); !stop.Load(); seq++ {
					proc, args := drv.Next()
					o := op{start: now(), session: uint16(i), seq: seq}
					gen += o.start - last
					for {
						r := s.engine.Exec(proc, args)
						if errors.Is(r.Err, mvcc.ErrConflict) {
							conflicts++
							continue
						}
						if r.Err != nil && !errors.Is(r.Err, tpcc.ErrRollback) {
							fail("txn %s session %d seq %d: %v", proc, i, seq, r.Err)
						}
						o.vid = r.CommitVID
						break
					}
					o.end = now()
					if o.vid != 0 {
						acked(o.vid)
					}
					ops = append(ops, o)
					last = o.end
				}
				mu.Lock()
				ph.txns = append(ph.txns, ops...)
				ph.conflicts += conflicts
				ph.genBusy += gen
				ph.sessBusy += last - born
				mu.Unlock()
			}(i)
		}
	}

	if who.query {
		for i := 0; i < s.p; i++ {
			gen := chbench.NewGen(s.db.Schemas, seed+10000+int64(i))
			var genMu sync.Mutex
			var seq uint32
			for slot := 0; slot < outstanding; slot++ {
				wg.Add(1)
				go func(i, slot int) {
					defer wg.Done()
					ops := make([]op, 0, capHint/64)
					think := rand.New(rand.NewSource(seed + 20000 + int64(i*outstanding+slot)))
					var busy int64
					born := now()
					last := born
					for !stop.Load() {
						// Templates go round robin, each session starting at its own
						// offset, with seeded predicates: a random choice among 14
						// templates of very different cost made a few hundred
						// queries' rate depend on the draw.
						genMu.Lock()
						q := gen.ByName(chbench.QueryNames[(int(seq)+i*len(chbench.QueryNames)/s.p)%len(chbench.QueryNames)])
						seq++
						o := op{session: uint16(i), seq: seq}
						genMu.Unlock()
						floor := maxAcked.Load()
						o.start = now()
						busy += o.start - last
						res, err := s.sched.Query(q)
						o.end = now()
						switch {
						case err != nil:
							fail("query %s session %d: %v", q.Name, i, err)
						case res.Err != nil:
							fail("query %s session %d: %v", q.Name, i, res.Err)
						case res.SnapshotVID < floor:
							// The freshness contract: a batch sees everything
							// acknowledged before it formed.
							fail("query %s session %d answered on VID %d, but VID %d was acknowledged before it was submitted",
								q.Name, i, res.SnapshotVID, floor)
						}
						o.vid = res.SnapshotVID
						ops = append(ops, o)
						// A tile is looked at for up to as long as it took to
						// arrive. Re-requested at once, the tiles answered by one
						// batch all join the batch after the next, for ever: the
						// split of the 4P tiles into two alternating groups (1+7,
						// 3+5, ...) that a race at the start made then lasts the
						// whole run and moves its numbers by a fifth.
						time.Sleep(time.Duration(think.Int63n(o.end - o.start + 1)))
						last = now()
					}
					mu.Lock()
					ph.queries = append(ph.queries, ops...)
					ph.genBusy += busy
					ph.sessBusy += last - born
					mu.Unlock()
				}(i, slot)
			}
		}
	}

	if who.load {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acks []op
			l := ingest.NewLoader(s.engine, bulkTableID, ingest.Config{
				OnChunk: func(a ingest.ChunkAck) {
					t := now()
					acked(a.VID)
					acks = append(acks, op{start: t, end: t, vid: a.VID, seq: uint32(a.Rows)})
				},
			})
			l.RegisterMetrics(s.reg, obs.L("phase", name))
			o := op{start: now()}
			rep, err := l.Load(func() ([]byte, bool) {
				if stop.Load() {
					return nil, false
				}
				tup := s.bulk.NewTuple()
				s.bulk.PutInt64(tup, 0, s.nextID)
				s.bulk.PutInt64(tup, 1, s.nextID*7+3)
				s.nextID++
				return tup, true
			})
			o.end = now()
			if err != nil {
				fail("bulk load: %v", err)
			}
			mu.Lock()
			ph.acks = append(ph.acks, acks...)
			ph.loads = append(ph.loads, o)
			ph.report = rep
			mu.Unlock()
		}()
	}

	time.Sleep(leadIn)
	if begin != nil {
		begin()
	}
	ph.t0 = now()
	time.Sleep(dur)
	ph.t1 = now()
	if end != nil {
		end()
	}
	stop.Store(true)
	wg.Wait()

	ph.attempted = int64(len(ph.txns) + len(ph.queries) + len(ph.acks))
	for _, a := range ph.acks { // so far only chunk acks, whose seq holds the row count
		if a.end >= ph.t0 && a.end <= ph.t1 {
			ph.loadRows += int64(a.seq)
		}
	}
	for _, o := range ph.txns {
		if o.vid != 0 {
			ph.acks = append(ph.acks, o)
		}
	}
	ph.txns = ph.inWindow(ph.txns)
	ph.queries = ph.inWindow(ph.queries)
	return ph
}
