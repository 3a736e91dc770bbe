package batchdb

import (
	"strings"
	"testing"
)

// The public DataDir lifecycle: fresh start, crash-free restart through
// NeedsSeed/RecoverDataDir, checkpoint-backed restart without the seed.
func TestDataDirLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, CheckpointEveryVIDs: -1, CheckpointEveryWALBytes: -1}

	// --- first run: fresh directory ---
	f := newFixture(t, cfg)
	need, err := f.db.NeedsSeed()
	if err != nil || !need {
		t.Fatalf("fresh dir NeedsSeed = %v, %v", need, err)
	}
	f.load(t, 10)
	if err := f.db.Start(); err != nil {
		t.Fatal(err)
	}
	const deposits = 20
	for i := 0; i < deposits; i++ {
		if r := f.db.Exec("deposit", depositArgs(1+uint64(i%10), 5)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if st := f.db.DurabilityStats(); st == nil {
		t.Fatal("DataDir instance has no durability stats")
	}
	if err := f.db.Close(); err != nil {
		t.Fatal(err)
	}

	// --- second run: no checkpoint yet, so the seed must be reloaded ---
	f2 := newFixture(t, cfg)
	need, err = f2.db.NeedsSeed()
	if err != nil || !need {
		t.Fatalf("pre-checkpoint NeedsSeed = %v, %v", need, err)
	}
	f2.load(t, 10)
	// Starting over existing state without recovering is refused.
	if err := f2.db.Start(); err == nil || !strings.Contains(err.Error(), "RecoverDataDir") {
		t.Fatalf("Start over existing DataDir: %v", err)
	}
	info, err := f2.db.RecoverDataDir()
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointVID != 0 || info.Replayed != deposits {
		t.Fatalf("recovery = %+v", info)
	}
	if err := f2.db.Start(); err != nil {
		t.Fatal(err)
	}
	// Balance of account 1: 100 + 2 deposits * 5.
	res, err := f2.db.Query(f2.totalQuery())
	if err != nil || res.Err != nil {
		t.Fatalf("query: %v %v", err, res.Err)
	}
	if want := float64(10*100 + deposits*5); res.Values[0] != want {
		t.Fatalf("total after recovery = %v, want %v", res.Values[0], want)
	}

	// --- checkpoint, then more writes ---
	vid, err := f2.db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if vid != deposits {
		t.Fatalf("checkpoint vid = %d, want %d", vid, deposits)
	}
	if got := f2.db.DurabilityStats().Checkpoints.Load(); got != 1 {
		t.Fatalf("Checkpoints counter = %d", got)
	}
	for i := 0; i < 5; i++ {
		if r := f2.db.Exec("deposit", depositArgs(3, 1)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	f2.db.Close()

	// --- third run: checkpoint replaces the seed ---
	f3 := newFixture(t, cfg)
	need, err = f3.db.NeedsSeed()
	if err != nil || need {
		t.Fatalf("post-checkpoint NeedsSeed = %v, %v", need, err)
	}
	info, err = f3.db.RecoverDataDir()
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointVID != deposits || info.Replayed != 5 {
		t.Fatalf("checkpointed recovery = %+v (want checkpoint %d, tail 5)", info, deposits)
	}
	if err := f3.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer f3.db.Close()
	res, err = f3.db.Query(f3.totalQuery())
	if err != nil || res.Err != nil {
		t.Fatalf("query: %v %v", err, res.Err)
	}
	if want := float64(10*100 + deposits*5 + 5); res.Values[0] != want {
		t.Fatalf("total after checkpointed recovery = %v, want %v", res.Values[0], want)
	}
	// New work lands above the recovered watermark.
	if r := f3.db.Exec("deposit", depositArgs(1, 1)); r.Err != nil || r.CommitVID != deposits+5+1 {
		t.Fatalf("post-recovery exec: vid=%d err=%v", r.CommitVID, r.Err)
	}
}

func TestRecoverDataDirGuards(t *testing.T) {
	f := newFixture(t, Config{})
	if _, err := f.db.RecoverDataDir(); err == nil {
		t.Fatal("RecoverDataDir without DataDir succeeded")
	}
	f.db.Close()

	g := newFixture(t, Config{DataDir: t.TempDir(), CheckpointEveryVIDs: -1})
	g.load(t, 3)
	if _, err := g.db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint before Start succeeded")
	}
	if err := g.db.Start(); err != nil {
		t.Fatal(err)
	}
	defer g.db.Close()
	if _, err := g.db.RecoverDataDir(); err == nil {
		t.Fatal("RecoverDataDir after Start succeeded")
	}
}
