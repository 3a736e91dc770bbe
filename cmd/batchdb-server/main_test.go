package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"batchdb"
	"batchdb/internal/obs"
)

// startTestServer boots a small server on loopback ports and returns it
// with a cleanup.
func startTestServer(t *testing.T) *server {
	t.Helper()
	s, err := newServer(options{
		listen:     "127.0.0.1:0",
		warehouses: 1,
		db:         batchdb.Config{OLAPWorkers: 2, MetricsAddr: "127.0.0.1:0"},
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	go s.serveLoop()
	t.Cleanup(s.close)
	return s
}

// roundTrip sends one protocol line and returns the reply line.
func roundTrip(t *testing.T, rw *bufio.ReadWriter, line string) string {
	t.Helper()
	if _, err := rw.WriteString(line + "\n"); err != nil {
		t.Fatalf("write %q: %v", line, err)
	}
	if err := rw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	reply, err := rw.ReadString('\n')
	if err != nil {
		t.Fatalf("read reply to %q: %v", line, err)
	}
	return strings.TrimRight(reply, "\n")
}

func dialServer(t *testing.T, s *server) (*bufio.ReadWriter, func()) {
	t.Helper()
	conn, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))
	return rw, func() { conn.Close() }
}

// TestServerMetricsEndToEnd drives a hybrid workload over the TCP
// protocol and then verifies the /metrics scrape: valid Prometheus
// text containing the freshness lag gauge, the OLAP batch latency
// summary, and a committed-transaction count matching the load.
func TestServerMetricsEndToEnd(t *testing.T) {
	s := startTestServer(t)
	rw, closeConn := dialServer(t, s)
	defer closeConn()

	committed := 0
	for i := 0; i < 10; i++ {
		r := roundTrip(t, rw, fmt.Sprintf("NEWORDER 1 %d %d", 1+i%10, 1+i))
		if strings.HasPrefix(r, "OK\tvid=") {
			committed++
		} else if !strings.HasPrefix(r, "OK") && !strings.HasPrefix(r, "RETRY") {
			t.Fatalf("NEWORDER: unexpected reply %q", r)
		}
		r = roundTrip(t, rw, "PAYMENT 1 1 42")
		if strings.HasPrefix(r, "OK\tvid=") {
			committed++
		}
	}
	if committed == 0 {
		t.Fatal("no transaction committed")
	}
	// An analytical query forces at least one batch through the
	// scheduler (apply window + exec), so batch metrics have samples.
	if r := roundTrip(t, rw, "QUERY Q10"); !strings.HasPrefix(r, "OK") {
		t.Fatalf("QUERY: %q", r)
	}

	resp, err := http.Get("http://" + s.db.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse as Prometheus text: %v", err)
	}

	byName := map[string][]obs.ParsedSample{}
	for _, sm := range samples {
		byName[sm.Name] = append(byName[sm.Name], sm)
	}
	if _, ok := byName["batchdb_freshness_vid_lag"]; !ok {
		t.Error("missing batchdb_freshness_vid_lag")
	}
	// The batch latency histogram exports as a summary: quantile
	// samples plus _sum/_count.
	quantiles := 0
	for _, sm := range byName["batchdb_olap_batch_latency_ns"] {
		for _, l := range sm.Labels {
			if l.Key == "quantile" {
				quantiles++
			}
		}
	}
	if quantiles < 3 {
		t.Errorf("batchdb_olap_batch_latency_ns: %d quantile samples, want >= 3", quantiles)
	}
	if n := len(byName["batchdb_olap_batch_latency_ns_count"]); n == 0 {
		t.Error("missing batchdb_olap_batch_latency_ns_count")
	}
	var gotCommitted float64
	found := false
	for _, sm := range byName["batchdb_oltp_txn_total"] {
		for _, l := range sm.Labels {
			if l.Key == "status" && l.Value == "committed" {
				gotCommitted = sm.Value
				found = true
			}
		}
	}
	if !found {
		t.Fatal("missing batchdb_oltp_txn_total{status=\"committed\"}")
	}
	if int(gotCommitted) < committed {
		t.Errorf("batchdb_oltp_txn_total{status=committed} = %v, want >= %d", gotCommitted, committed)
	}

	// Batches pin the replica and apply rounds wait for the pins to drop:
	// with the workload idle no pin is left.
	deadline := time.Now().Add(5 * time.Second)
	for {
		pinned := scrapeByName(t, s)["batchdb_olap_pinned_snapshots"]
		if len(pinned) == 0 {
			t.Fatal("missing batchdb_olap_pinned_snapshots in /metrics")
		}
		if pinned[0].Value == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pins outstanding at idle: %v", pinned[0].Value)
		}
		time.Sleep(20 * time.Millisecond)
	}

	hr, err := http.Get("http://" + s.db.MetricsAddr() + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: status %d body %q", hr.StatusCode, body)
	}
}

// scrapeByName fetches /metrics and indexes the parsed samples by name.
func scrapeByName(t *testing.T, s *server) map[string][]obs.ParsedSample {
	t.Helper()
	resp, err := http.Get("http://" + s.db.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse as Prometheus text: %v", err)
	}
	byName := map[string][]obs.ParsedSample{}
	for _, sm := range samples {
		byName[sm.Name] = append(byName[sm.Name], sm)
	}
	return byName
}

// TestServerStatsFromRegistry checks the STATS command renders the
// unified registry (the same names /metrics exposes), not a bespoke
// format.
func TestServerStatsFromRegistry(t *testing.T) {
	s := startTestServer(t)
	rw, closeConn := dialServer(t, s)
	defer closeConn()

	if r := roundTrip(t, rw, "NEWORDER 1 1 1"); !strings.HasPrefix(r, "OK") && !strings.HasPrefix(r, "RETRY") {
		t.Fatalf("NEWORDER: %q", r)
	}
	stats := roundTrip(t, rw, "STATS")
	if !strings.HasPrefix(stats, "OK\t") {
		t.Fatalf("STATS: %q", stats)
	}
	for _, want := range []string{
		"batchdb_oltp_txn_total",
		"batchdb_freshness_installed_vid",
		"batchdb_olap_batches_total",
		"batchdb_olap_exec_probe_lookups_total",
		"batchdb_olap_exec_probe_pred_evals_total",
		"batchdb_olap_apply_rounds_total{cause=barrier",
		"batchdb_olap_apply_rounds_total{cause=push",
		"batchdb_olap_blocks_reencoded_total",
		"batchdb_olap_pinned_snapshots",
	} {
		if !strings.Contains(stats, want) {
			t.Errorf("STATS output missing %s: %q", want, stats)
		}
	}
	if gone := "batchdb_olap_apply_rounds_total{cause=gap"; strings.Contains(stats, gone) {
		t.Errorf("STATS output still has %s: %q", gone, stats)
	}
	if r := roundTrip(t, rw, "QUIT"); r != "BYE" {
		t.Fatalf("QUIT: %q", r)
	}
}

// TestServerFleetMode boots the server with -fleet 2 and drives the
// routed analytical path over the protocol: QUERY reports routing
// metadata, KILL severs a member's feed without losing query service,
// and FLEET renders per-member health.
func TestServerFleetMode(t *testing.T) {
	s, err := newServer(options{
		listen:     "127.0.0.1:0",
		warehouses: 1,
		db:         batchdb.Config{OLAPWorkers: 2},
		fleet:      batchdb.FleetConfig{Replicas: 2, Router: batchdb.RouterConfig{Deadline: 10 * time.Second}},
		budget:     batchdb.FleetBudget{MaxStaleness: 5 * time.Second},
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	go s.serveLoop()
	t.Cleanup(s.close)
	rw, closeConn := dialServer(t, s)
	defer closeConn()

	if r := roundTrip(t, rw, "PAYMENT 1 1 42"); !strings.HasPrefix(r, "OK\tvid=") {
		t.Fatalf("PAYMENT: %q", r)
	}
	r := roundTrip(t, rw, "QUERY Q10")
	if !strings.HasPrefix(r, "OK\tQ10") || !strings.Contains(r, "member=") {
		t.Fatalf("routed QUERY: %q", r)
	}
	// Drill: sever member 0's replication feed. The router retries onto
	// the healthy member (or the killed one after resync), so query
	// service continues.
	if r := roundTrip(t, rw, "KILL 0"); !strings.HasPrefix(r, "OK") {
		t.Fatalf("KILL 0: %q", r)
	}
	if r := roundTrip(t, rw, "QUERY Q12"); !strings.HasPrefix(r, "OK\tQ12") {
		t.Fatalf("QUERY after KILL: %q", r)
	}
	if r := roundTrip(t, rw, "KILL 9"); !strings.HasPrefix(r, "ERR") {
		t.Fatalf("KILL 9 (out of range): %q", r)
	}
	fl := roundTrip(t, rw, "FLEET")
	if !strings.HasPrefix(fl, "OK\t") || !strings.Contains(fl, "member0[") || !strings.Contains(fl, "member1[") {
		t.Fatalf("FLEET: %q", fl)
	}
	// The fleet's router and per-member instruments land in the same
	// registry STATS renders.
	stats := roundTrip(t, rw, "STATS")
	if !strings.Contains(stats, "batchdb_fleet_queries_total") {
		t.Errorf("STATS missing batchdb_fleet_queries_total: %q", stats)
	}
}

// TestServerLoadCommand drives the bulk-ingest path over the protocol:
// a governed LOAD and an ungoverned one both land their rows in the
// scratch table, ids never collide across loads, and the reply carries
// the governor telemetry.
func TestServerLoadCommand(t *testing.T) {
	s := startTestServer(t)
	rw, closeConn := dialServer(t, s)
	defer closeConn()

	r := roundTrip(t, rw, "LOAD 3000")
	if !strings.HasPrefix(r, "OK\trows=3000") || !strings.Contains(r, "bound=") {
		t.Fatalf("LOAD: %q", r)
	}
	if r := roundTrip(t, rw, "LOAD 2000 OFF"); !strings.HasPrefix(r, "OK\trows=2000") {
		t.Fatalf("LOAD OFF: %q", r)
	}
	if r := roundTrip(t, rw, "LOAD -5"); !strings.HasPrefix(r, "ERR") {
		t.Fatalf("LOAD -5: %q", r)
	}

	// Both loads are visible and contiguous: ids 0..4999 present, 5000
	// absent, values intact.
	bs := bulkSchema()
	tx := s.db.Store().BeginRO()
	defer tx.Abort()
	tbl := s.db.Store().Table(bulkTableID)
	for _, id := range []int64{0, 2999, 3000, 4999} {
		tup, ok := tx.Get(tbl, uint64(id))
		if !ok {
			t.Fatalf("row %d missing after LOAD", id)
		}
		if v := bs.GetInt64(tup, 1); v != id*7+3 {
			t.Fatalf("row %d: val %d", id, v)
		}
	}
	if _, ok := tx.Get(tbl, 5000); ok {
		t.Fatal("phantom row past the loaded range")
	}
	if s.nextBulkID != 5000 {
		t.Fatalf("nextBulkID = %d, want 5000", s.nextBulkID)
	}

	// The ingest chunks ride the normal commit path, so the committed
	// counter includes them.
	stats := roundTrip(t, rw, "STATS")
	if !strings.Contains(stats, "batchdb_oltp_txn_total") {
		t.Fatalf("STATS after LOAD: %q", stats)
	}
}

// TestServerLoadSurvivesRestart checks LOAD's durability wiring: rows
// loaded into a -data-dir server come back after a restart, and the id
// counter resumes past them so the next LOAD does not collide.
func TestServerLoadSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := options{
		listen:     "127.0.0.1:0",
		warehouses: 1,
		db: batchdb.Config{
			OLAPWorkers:         2,
			DataDir:             dir,
			CheckpointEveryVIDs: 50000,
			WALSegmentBytes:     1 << 20,
		},
	}
	s1, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	go s1.serveLoop()
	rw, closeConn := dialServer(t, s1)
	if r := roundTrip(t, rw, "LOAD 1500"); !strings.HasPrefix(r, "OK\trows=1500") {
		t.Fatalf("LOAD: %q", r)
	}
	if r := roundTrip(t, rw, "CHECKPOINT"); !strings.HasPrefix(r, "OK") {
		t.Fatalf("CHECKPOINT: %q", r)
	}
	closeConn()
	s1.close()

	s2, err := newServer(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	go s2.serveLoop()
	t.Cleanup(s2.close)
	if s2.nextBulkID != 1500 {
		t.Fatalf("recovered nextBulkID = %d, want 1500", s2.nextBulkID)
	}
	tx := s2.db.Store().BeginRO()
	tbl := s2.db.Store().Table(bulkTableID)
	for _, id := range []int64{0, 777, 1499} {
		if _, ok := tx.Get(tbl, uint64(id)); !ok {
			t.Fatalf("row %d lost across restart", id)
		}
	}
	tx.Abort()
	rw2, closeConn2 := dialServer(t, s2)
	defer closeConn2()
	if r := roundTrip(t, rw2, "LOAD 500 OFF"); !strings.HasPrefix(r, "OK\trows=500") {
		t.Fatalf("LOAD after restart: %q", r)
	}
}

// TestServerQueryReply exercises both paths: every TPC-C transaction
// must commit, roll back as the spec asks (both OK) or report a
// retryable conflict — never an error — and a named CH query over the
// warehouse must return rows through the batch-at-a-time scheduler.
func TestServerQueryReply(t *testing.T) {
	s := startTestServer(t)
	rw, closeConn := dialServer(t, s)
	defer closeConn()

	// Commit something first so the apply window has a snapshot to
	// install (freshness only advances past committed transactions).
	// PAYMENT never rolls back, and a single connection cannot conflict.
	if r := roundTrip(t, rw, "PAYMENT 1 1 42"); !strings.HasPrefix(r, "OK\tvid=") {
		t.Fatalf("PAYMENT: %q", r)
	}
	for _, cmd := range []string{"NEWORDER 1 2 3", "PAYMENT 1 2 42", "DELIVERY 1", "ORDERSTATUS 1 2", "STOCKLEVEL 1 2 15"} {
		r := roundTrip(t, rw, cmd)
		if !strings.HasPrefix(r, "OK\t") && !strings.HasPrefix(r, "RETRY\t") {
			t.Fatalf("%s: %q", cmd, r)
		}
	}
	for _, q := range []string{"Q10", "Q12"} {
		r := roundTrip(t, rw, "QUERY "+q)
		if !strings.HasPrefix(r, "OK\t"+q) {
			t.Fatalf("QUERY %s: %q", q, r)
		}
	}
	// An unknown name is a reply, not a crash: the connection (and the
	// server) still answers the next query.
	if r := roundTrip(t, rw, "QUERY Q99"); r != "ERR\tunknown query \"Q99\"" {
		t.Fatalf("QUERY Q99: %q", r)
	}
	if r := roundTrip(t, rw, "QUERY Q10"); !strings.HasPrefix(r, "OK\tQ10") {
		t.Fatalf("QUERY Q10 after Q99: %q", r)
	}
	// Freshness should show an installed snapshot once a batch ran.
	installedVID := func() float64 {
		for _, sm := range s.db.Metrics().Samples() {
			if sm.Name == "batchdb_freshness_installed_vid" {
				return sm.Value
			}
		}
		return 0
	}
	deadline := time.Now().Add(5 * time.Second)
	for installedVID() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if installedVID() == 0 {
		t.Error("freshness tracker never observed a snapshot install")
	}
}

// TestServerErrorReplies checks the protocol's error answers: commands
// that need a mode the server was not started in, an unknown command, a
// transaction on a warehouse that does not exist, a CHECKPOINT with
// nothing new to cover, and a listen address that is already bound.
func TestServerErrorReplies(t *testing.T) {
	s := startTestServer(t)
	rw, closeConn := dialServer(t, s)
	defer closeConn()
	for _, c := range []struct{ cmd, want string }{
		{"CHECKPOINT", "ERR\tno -data-dir configured"},
		{"KILL 0", "ERR\tKILL requires -fleet mode"},
		{"FLEET", "ERR\tFLEET requires -fleet mode"},
		{"FROB", "ERR\tunknown command \"FROB\""},
	} {
		if r := roundTrip(t, rw, c.cmd); r != c.want {
			t.Errorf("%s: %q, want %q", c.cmd, r, c.want)
		}
	}
	if r := roundTrip(t, rw, "PAYMENT 99 1 5"); !strings.HasPrefix(r, "ERR\t") {
		t.Errorf("PAYMENT on a missing warehouse: %q", r)
	}
	// A malformed argument falls back to its default (warehouse 1).
	if r := roundTrip(t, rw, "PAYMENT x 1 5"); !strings.HasPrefix(r, "OK\tvid=") {
		t.Errorf("PAYMENT with a malformed warehouse: %q", r)
	}

	if _, err := newServer(options{
		listen:     s.ln.Addr().String(),
		warehouses: 1,
		db:         batchdb.Config{OLAPWorkers: 2},
	}); err == nil {
		t.Fatal("newServer on a bound address succeeded")
	}

	d, err := newServer(options{
		listen:     "127.0.0.1:0",
		warehouses: 1,
		db:         batchdb.Config{OLAPWorkers: 2, DataDir: t.TempDir()},
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	go d.serveLoop()
	t.Cleanup(d.close)
	drw, closeD := dialServer(t, d)
	defer closeD()
	if r := roundTrip(t, drw, "PAYMENT 1 1 5"); !strings.HasPrefix(r, "OK\tvid=") {
		t.Fatalf("PAYMENT: %q", r)
	}
	if r := roundTrip(t, drw, "CHECKPOINT"); !strings.HasPrefix(r, "OK\tvid=") {
		t.Fatalf("CHECKPOINT: %q", r)
	}
	if r := roundTrip(t, drw, "CHECKPOINT"); r != "OK\tno progress since last checkpoint" {
		t.Fatalf("CHECKPOINT with nothing new: %q", r)
	}
}
