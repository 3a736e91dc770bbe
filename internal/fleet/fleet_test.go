package fleet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"batchdb/internal/obs"
)

// fakeBackend is a scriptable fleet member. All mutable fields are
// guarded so tests can flip behavior mid-flight under -race.
type fakeBackend struct {
	mu     sync.Mutex
	health Health
	delay  time.Duration
	err    error
	res    int
	calls  int
}

func (f *fakeBackend) set(fn func(*fakeBackend)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

func (f *fakeBackend) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *fakeBackend) QueryContext(ctx context.Context, q int) (int, error) {
	f.mu.Lock()
	f.calls++
	d, err, res := f.delay, f.err, f.res
	f.mu.Unlock()
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	if err != nil {
		return 0, err
	}
	if res != 0 {
		return res, nil
	}
	return q * 2, nil
}

func (f *fakeBackend) Health() Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.health
}

func healthy() Health { return Health{Connected: true} }

func newTestRouter(t *testing.T, cfg Config, fakes ...*fakeBackend) *Router[int, int] {
	t.Helper()
	backends := make([]Backend[int, int], len(fakes))
	for i, f := range fakes {
		backends[i] = f
	}
	r, err := NewRouter[int, int](backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNoBackends(t *testing.T) {
	if _, err := NewRouter[int, int](nil, Config{}); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("NewRouter(nil) = %v, want ErrNoBackends", err)
	}
}

func TestRoutesToLeastLoaded(t *testing.T) {
	a := &fakeBackend{health: Health{Connected: true, QueueDepth: 5}}
	b := &fakeBackend{health: Health{Connected: true, QueueDepth: 0}}
	c := &fakeBackend{health: Health{Connected: true, QueueDepth: 9}}
	r := newTestRouter(t, Config{}, a, b, c)
	for i := 0; i < 10; i++ {
		res, meta, err := r.Query(context.Background(), i, Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if res != i*2 {
			t.Fatalf("res = %d, want %d", res, i*2)
		}
		if meta.Backend != 1 {
			t.Fatalf("routed to %d, want least-loaded member 1", meta.Backend)
		}
	}
	if a.callCount() != 0 || c.callCount() != 0 {
		t.Fatalf("loaded members received traffic: a=%d c=%d", a.callCount(), c.callCount())
	}
}

func TestRetryOnDifferentMember(t *testing.T) {
	bad := &fakeBackend{health: healthy(), err: errors.New("boom")}
	good := &fakeBackend{health: Health{Connected: true, QueueDepth: 1}}
	r := newTestRouter(t, Config{RetryBackoff: time.Millisecond}, bad, good)
	res, meta, err := r.Query(context.Background(), 7, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res != 14 || meta.Backend != 1 {
		t.Fatalf("res=%d backend=%d, want 14 from member 1", res, meta.Backend)
	}
	if meta.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", meta.Attempts)
	}
	st := r.Stats()
	if st.Retries.Load() != 1 || st.Failures.Load() != 1 {
		t.Fatalf("retries=%d failures=%d, want 1/1", st.Retries.Load(), st.Failures.Load())
	}
}

func TestDeadlineBoundsQuery(t *testing.T) {
	slow := &fakeBackend{health: healthy(), delay: 10 * time.Second}
	r := newTestRouter(t, Config{}, slow, slow)
	t0 := time.Now()
	_, _, err := r.Query(context.Background(), 1, Budget{Deadline: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("query against hung fleet succeeded")
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("deadline not enforced: took %v", el)
	}
	if r.Stats().Rejected.Load() != 1 {
		t.Fatalf("rejected = %d, want 1", r.Stats().Rejected.Load())
	}
}

func TestEjectProbeReadmit(t *testing.T) {
	flaky := &fakeBackend{health: healthy(), err: errors.New("down")}
	steady := &fakeBackend{health: Health{Connected: true, QueueDepth: 1}}
	cfg := Config{
		FailureThreshold: 2,
		ProbeBackoff:     20 * time.Millisecond,
		RetryBackoff:     time.Millisecond,
	}
	r := newTestRouter(t, cfg, flaky, steady)

	// Drive failures until the breaker ejects member 0.
	for i := 0; i < 4 && r.EjectedCount() == 0; i++ {
		if _, _, err := r.Query(context.Background(), i, Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.EjectedCount(); got != 1 {
		t.Fatalf("ejected = %d, want 1", got)
	}
	if r.Stats().Ejections.Load() != 1 {
		t.Fatalf("ejections = %d, want 1", r.Stats().Ejections.Load())
	}

	// While ejected (probe not yet due), member 0 takes no traffic.
	calls := flaky.callCount()
	for i := 0; i < 5; i++ {
		if _, meta, err := r.Query(context.Background(), i, Budget{}); err != nil || meta.Backend != 1 {
			t.Fatalf("query during ejection: backend=%d err=%v", meta.Backend, err)
		}
	}
	if flaky.callCount() != calls {
		t.Fatal("ejected member received non-probe traffic")
	}

	// Heal the member; after the probe backoff a query probes and
	// re-admits it.
	flaky.set(func(f *fakeBackend) { f.err = nil })
	deadline := time.Now().Add(5 * time.Second)
	for r.EjectedCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("healed member never re-admitted")
		}
		time.Sleep(25 * time.Millisecond)
		if _, _, err := r.Query(context.Background(), 1, Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Probes.Load() < 1 || st.Readmits.Load() != 1 {
		t.Fatalf("probes=%d readmits=%d", st.Probes.Load(), st.Readmits.Load())
	}
	if int(st.Ejections.Load()-st.Readmits.Load()) != r.EjectedCount() {
		t.Fatal("ejections − readmits != currently ejected")
	}
}

func TestFailedProbeBacksOff(t *testing.T) {
	flaky := &fakeBackend{health: healthy(), err: errors.New("down")}
	steady := &fakeBackend{health: Health{Connected: true, QueueDepth: 1}}
	cfg := Config{
		FailureThreshold: 1,
		ProbeBackoff:     10 * time.Millisecond,
		MaxProbeBackoff:  50 * time.Millisecond,
		RetryBackoff:     time.Millisecond,
	}
	r := newTestRouter(t, cfg, flaky, steady)
	if _, _, err := r.Query(context.Background(), 1, Budget{}); err != nil {
		t.Fatal(err)
	}
	if r.EjectedCount() != 1 {
		t.Fatal("member not ejected")
	}
	// Probes keep failing; the member must stay ejected and each failed
	// probe must reschedule the next one (no wedged probing flag).
	for i := 0; i < 6; i++ {
		time.Sleep(15 * time.Millisecond)
		if _, _, err := r.Query(context.Background(), i, Budget{}); err != nil {
			t.Fatal(err)
		}
	}
	if r.EjectedCount() != 1 {
		t.Fatal("failing member re-admitted")
	}
	if r.Stats().Probes.Load() < 2 {
		t.Fatalf("probes = %d, want repeated probing", r.Stats().Probes.Load())
	}
}

func TestQueueDepthGate(t *testing.T) {
	deep := &fakeBackend{health: Health{Connected: true, QueueDepth: 100}}
	ok := &fakeBackend{health: Health{Connected: true, QueueDepth: 1}}
	r := newTestRouter(t, Config{MaxQueueDepth: 10}, deep, ok)
	for i := 0; i < 5; i++ {
		_, meta, err := r.Query(context.Background(), i, Budget{})
		if err != nil || meta.Backend != 1 {
			t.Fatalf("backend=%d err=%v, want member 1", meta.Backend, err)
		}
	}
	if deep.callCount() != 0 {
		t.Fatal("overloaded member received traffic")
	}

	// All members beyond the gate: the router waits out the deadline for
	// one to drain, then reports the typed no-healthy error.
	all := newTestRouter(t, Config{MaxQueueDepth: 10}, deep, deep)
	_, _, err := all.Query(context.Background(), 1, Budget{Deadline: 50 * time.Millisecond})
	if !errors.Is(err, ErrNoHealthy) {
		t.Fatalf("err = %v, want ErrNoHealthy", err)
	}
}

func TestStaleRejectPolicy(t *testing.T) {
	stale := &fakeBackend{health: Health{Connected: false, StalenessNanos: int64(10 * time.Second)}}
	r := newTestRouter(t, Config{}, stale)
	_, _, err := r.Query(context.Background(), 1, Budget{
		Deadline:     50 * time.Millisecond, // waits for the member to catch up, then rejects typed
		MaxStaleness: time.Second,
	})
	if !errors.Is(err, ErrStalenessUnmet) {
		t.Fatalf("err = %v, want ErrStalenessUnmet", err)
	}
	if r.Stats().Rejected.Load() != 1 {
		t.Fatalf("rejected = %d", r.Stats().Rejected.Load())
	}
}

func TestStaleServePolicy(t *testing.T) {
	fresher := &fakeBackend{health: Health{Connected: false, StalenessNanos: int64(3 * time.Second), InstalledVID: 7}}
	staler := &fakeBackend{health: Health{Connected: false, StalenessNanos: int64(30 * time.Second)}}
	r := newTestRouter(t, Config{}, staler, fresher)
	res, meta, err := r.Query(context.Background(), 5,
		Budget{MaxStaleness: time.Second, StalePolicy: StaleServe})
	if err != nil {
		t.Fatal(err)
	}
	if res != 10 {
		t.Fatalf("res = %d", res)
	}
	if !meta.Stale || meta.Backend != 1 {
		t.Fatalf("meta = %+v, want Stale from freshest member 1", meta)
	}
	if r.Stats().StaleServed.Load() != 1 {
		t.Fatalf("stale served = %d", r.Stats().StaleServed.Load())
	}
	// Stale-served answers still count as Answered.
	if r.Stats().Answered.Load() != 1 {
		t.Fatalf("answered = %d", r.Stats().Answered.Load())
	}
}

// staleRes carries its own snapshot provenance, like exec.Result.
type staleRes struct {
	v   int
	ns  int64
	vid uint64
}

func (s staleRes) SnapshotMeta() (uint64, int64, bool) { return s.vid, s.ns, true }

type provBackend struct {
	ns  int64
	vid uint64
}

func (p *provBackend) QueryContext(_ context.Context, q int) (staleRes, error) {
	return staleRes{v: q * 2, ns: p.ns, vid: p.vid}, nil
}
func (p *provBackend) Health() Health { return Health{Connected: true} }

// A connected member whose *answer* violates the bound (stamped via
// SnapshotMeta) is stale-rejected post-answer; under StaleServe the
// freshest collected answer is served flagged.
func TestPostAnswerStalenessEnforcement(t *testing.T) {
	a := &provBackend{ns: int64(8 * time.Second), vid: 3}
	b := &provBackend{ns: int64(4 * time.Second), vid: 5}
	r, err := NewRouter[int, staleRes]([]Backend[int, staleRes]{a, b},
		Config{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, meta, err := r.Query(context.Background(), 6,
		Budget{MaxStaleness: time.Second, StalePolicy: StaleServe})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Stale || res.v != 12 {
		t.Fatalf("meta=%+v res=%+v", meta, res)
	}
	if meta.StalenessNanos != int64(4*time.Second) || meta.SnapshotVID != 5 {
		t.Fatalf("served answer is not the freshest: %+v", meta)
	}
	if r.Stats().StaleRejected.Load() < 1 {
		t.Fatal("no stale rejection recorded")
	}

	// Under StaleReject the same fleet yields ErrStalenessUnmet.
	r2, _ := NewRouter[int, staleRes]([]Backend[int, staleRes]{a, b},
		Config{RetryBackoff: time.Millisecond})
	if _, _, err := r2.Query(context.Background(), 6, Budget{MaxStaleness: time.Second}); !errors.Is(err, ErrStalenessUnmet) {
		t.Fatalf("err = %v, want ErrStalenessUnmet", err)
	}
}

func TestLoadShedding(t *testing.T) {
	slow := &fakeBackend{health: healthy(), delay: 200 * time.Millisecond}
	r := newTestRouter(t, Config{MaxInFlight: 1}, slow)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := r.Query(context.Background(), 1, Budget{}); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(30 * time.Millisecond) // first query now occupies the slot
	_, _, err := r.Query(context.Background(), 2, Budget{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	<-done
	st := r.Stats()
	if st.Shed.Load() != 1 || st.Answered.Load() != 1 {
		t.Fatalf("shed=%d answered=%d", st.Shed.Load(), st.Answered.Load())
	}
	if st.Queries.Load() != st.Answered.Load()+st.Rejected.Load()+st.Shed.Load() {
		t.Fatal("Queries != Answered + Rejected + Shed")
	}
}

func TestClosedRouter(t *testing.T) {
	b := &fakeBackend{health: healthy()}
	r := newTestRouter(t, Config{}, b)
	r.Close()
	r.Close() // idempotent
	if _, _, err := r.Query(context.Background(), 1, Budget{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestCounterConsistency(t *testing.T) {
	flaky := &fakeBackend{health: healthy(), err: errors.New("boom")}
	good := &fakeBackend{health: Health{Connected: true, QueueDepth: 1}}
	r := newTestRouter(t, Config{RetryBackoff: time.Millisecond, FailureThreshold: 3}, flaky, good)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				r.Query(context.Background(), i, Budget{})
			}
		}(g)
	}
	wg.Wait()
	st := r.Stats()
	if st.Queries.Load() != 100 {
		t.Fatalf("queries = %d", st.Queries.Load())
	}
	if st.Queries.Load() != st.Answered.Load()+st.Rejected.Load()+st.Shed.Load() {
		t.Fatalf("Queries %d != Answered %d + Rejected %d + Shed %d",
			st.Queries.Load(), st.Answered.Load(), st.Rejected.Load(), st.Shed.Load())
	}
	var routed uint64
	for _, m := range r.members {
		routed += m.stats.Routed.Load()
	}
	if st.Attempts.Load() != routed {
		t.Fatalf("Attempts %d != Σ member routed %d", st.Attempts.Load(), routed)
	}
	if int(st.Ejections.Load())-int(st.Readmits.Load()) != r.EjectedCount() {
		t.Fatal("breaker gauge out of sync with counters")
	}
}

func TestRegisterMetrics(t *testing.T) {
	a := &fakeBackend{health: healthy()}
	b := &fakeBackend{health: Health{Connected: true, QueueDepth: 1}}
	r := newTestRouter(t, Config{}, a, b)
	if _, _, err := r.Query(context.Background(), 1, Budget{}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r.RegisterMetrics(reg, obs.L("tier", "olap"))
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"batchdb_fleet_queries_total",
		"batchdb_fleet_ejected",
		"batchdb_fleet_inflight",
		`batchdb_fleet_member_routed_total{member="0",tier="olap"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
	if n := len(r.members); n != 2 {
		t.Fatalf("members = %d", n)
	}
	_ = r.MemberHealth(0)
}

// TestWaitsOutMomentaryFullOutage pins the deadline-as-budget contract:
// when every member is momentarily unroutable (here: failing hard enough
// to stay ejected with no probe due), a query whose deadline outlives
// the outage is answered, not rejected — the router keeps re-picking,
// re-opening already-tried members, until one recovers.
func TestWaitsOutMomentaryFullOutage(t *testing.T) {
	a := &fakeBackend{health: healthy(), err: errors.New("down")}
	b := &fakeBackend{health: healthy(), err: errors.New("down")}
	cfg := Config{
		FailureThreshold: 1,
		RetryBackoff:     time.Millisecond,
		ProbeBackoff:     5 * time.Second, // no probe rescues us within the test
		MaxAttempts:      10,
	}
	r := newTestRouter(t, cfg, a, b)

	// Eject both members.
	if _, _, err := r.Query(context.Background(), 1, Budget{Deadline: 100 * time.Millisecond}); err == nil {
		t.Fatal("query against dead fleet succeeded")
	}
	if r.EjectedCount() != 2 {
		t.Fatalf("ejected = %d, want 2", r.EjectedCount())
	}

	// Heal member 1 mid-query: the router is waiting for a probe slot,
	// and member 1's probe comes due 30ms in — well inside the deadline.
	b.set(func(f *fakeBackend) { f.err = nil })
	r.members[1].mu.Lock()
	r.members[1].nextProbe = time.Now().Add(30 * time.Millisecond)
	r.members[1].mu.Unlock()
	t0 := time.Now()
	res, meta, err := r.Query(context.Background(), 21, Budget{Deadline: 2 * time.Second})
	if err != nil {
		t.Fatalf("query across momentary full outage: %v", err)
	}
	if res != 42 || meta.Backend != 1 {
		t.Fatalf("res=%d backend=%d, want 42 from member 1", res, meta.Backend)
	}
	if el := time.Since(t0); el < 20*time.Millisecond {
		t.Fatalf("answered in %v — did not actually wait for the probe", el)
	}
	if r.EjectedCount() != 1 {
		t.Fatalf("ejected = %d after readmit, want 1", r.EjectedCount())
	}
}
