package replica

// Freshness-lag regression: the observability tracker must see an
// outage. While the link is down the supervisor answers SyncUpdates
// with the replica's own covered VID, so the naive VID-lag gauge stays
// at zero — the wall-clock staleness signal has to rise instead, and
// after reconnect + resync the lag high-watermark has to record the
// backlog spike while the live gauges collapse back to fresh.

import (
	"testing"
	"time"

	"batchdb/internal/network"
	"batchdb/internal/obs"
	"batchdb/internal/olap"
	"batchdb/internal/oltp"
	"batchdb/internal/storage"
)

func TestFreshnessThroughOutage(t *testing.T) {
	engine, schema := newPutEngine(t)
	l, err := network.Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, engine, []storage.TableID{1})
	addr := srv.Addr()
	engine.Start()
	defer engine.Close()

	rep := olap.NewReplica(2)
	rep.CreateTable(schema, 1024)
	sup := NewSupervisor(addr, rep, SupervisorConfig{
		Retry:          network.RetryPolicy{Attempts: 3, BaseDelay: 5 * time.Millisecond},
		ReconnectPause: 10 * time.Millisecond,
	})
	sup.Start()
	defer sup.Close()

	// The real scheduler drives the freshness hooks: sync (watermark
	// observation) then apply.
	run := func(queries []int, snap uint64) []int64 {
		// Through a pin, as RunBatchFunc requires: a push-kicked apply
		// round waits for it to drop.
		sv := rep.PinSnapshot()
		defer sv.Unpin()
		out := make([]int64, len(queries))
		for i := range out {
			out[i] = int64(sv.Table(1).Live())
		}
		return out
	}
	sched := olap.NewScheduler(rep, sup, run)
	fresh := sched.Freshness()
	reg := obs.NewRegistry()
	sched.RegisterMetrics(reg)
	sched.Start()
	defer sched.Close()

	if _, err := sup.WaitBootstrap(); err != nil {
		t.Fatal(err)
	}

	// Ten commits a batch, so the lag high-watermark stays below the
	// outage's backlog of 40.
	for from := int64(1); from <= 40; from += 10 {
		putRange(t, engine, from, from+9)
		if _, err := sched.Query(0); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := findRegValue(reg, "batchdb_freshness_vid_lag_high"); !ok || v >= 40 {
		t.Fatalf("registry vid lag high before the outage = %v,%v, want below 40", v, ok)
	}
	if got := fresh.InstalledVID(); got != 40 {
		t.Fatalf("installed VID after first batch = %d, want 40", got)
	}
	if lag := fresh.VIDLag(); lag != 0 {
		t.Fatalf("VID lag while caught up = %d", lag)
	}

	// Outage: no listener to reconnect to, current connection severed.
	srv.Close()
	sup.KillConnection()
	putRange(t, engine, 41, 80) // committed while the replica is dark

	const outage = 150 * time.Millisecond
	time.Sleep(outage)
	if _, err := sched.Query(0); err != nil {
		t.Fatal(err)
	}
	if sup.Status().Connected {
		t.Fatal("supervisor claims a live connection during the outage")
	}
	// Degraded syncs answer with the replica's own covered VID, so the
	// lag gauge is blind here — that is exactly why staleness exists.
	if lag := fresh.VIDLag(); lag != 0 {
		t.Fatalf("degraded VID lag = %d, want 0 (fallback answers)", lag)
	}
	peak := fresh.StalenessNanos()
	if peak < int64(outage) {
		t.Fatalf("staleness during outage = %v, want >= %v",
			time.Duration(peak), outage)
	}

	// Recovery: restore the listener; the supervisor reconnects and
	// stages a resync snapshot, installed at the next apply round.
	l2, err := network.Listen(addr, nil)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer Serve(l2, engine, []storage.TableID{1}).Close()

	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := sched.Query(0); err != nil {
			t.Fatal(err)
		}
		if sup.Status().Connected && rep.AppliedVID() >= engine.LatestVID() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never recovered: applied %d, primary %d, connected %v",
				rep.AppliedVID(), engine.LatestVID(), sup.Status().Connected)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The first post-reconnect sync sees the full backlog before the
	// apply window installs it: 40 commits happened in the dark.
	if v, ok := findRegValue(reg, "batchdb_freshness_vid_lag_high"); !ok || v < 40 {
		t.Fatalf("post-outage registry vid lag high = %v,%v, want >= 40", v, ok)
	}
	if lag := fresh.VIDLag(); lag != 0 {
		t.Fatalf("VID lag after recovery = %d, want 0", lag)
	}
	if got := fresh.InstalledVID(); got < 80 {
		t.Fatalf("installed VID after recovery = %d, want >= 80", got)
	}
	if after := fresh.StalenessNanos(); after >= peak {
		t.Fatalf("staleness did not collapse after resync: %v >= %v",
			time.Duration(after), time.Duration(peak))
	}
	if sup.Status().Resyncs < 1 {
		t.Fatalf("resyncs = %d, want >= 1", sup.Status().Resyncs)
	}

	// The registered gauges tell the same story through the registry.
	if v, ok := findRegValue(reg, "batchdb_freshness_vid_lag"); !ok || v != 0 {
		t.Fatalf("registry vid lag = %v,%v", v, ok)
	}
	if v, ok := findRegValue(reg, "batchdb_freshness_installs_total"); !ok || v < 2 {
		t.Fatalf("registry installs = %v,%v", v, ok)
	}
}

func putRange(t *testing.T, engine *oltp.Engine, from, to int64) {
	t.Helper()
	for i := from; i <= to; i++ {
		if r := engine.Exec("put", args2(i, i)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

// findRegValue returns the first sample with the given name.
func findRegValue(reg *obs.Registry, name string) (float64, bool) {
	for _, s := range reg.Samples() {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}
