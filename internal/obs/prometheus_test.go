package obs

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func findParsed(t *testing.T, samples []ParsedSample, name string) ParsedSample {
	t.Helper()
	for _, s := range samples {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("parsed sample %s not found", name)
	return ParsedSample{}
}

// The exporter's output must parse as valid Prometheus text exposition
// and round-trip label values through the escape rules.
func TestWritePrometheusParsesAndEscapes(t *testing.T) {
	r := NewRegistry()
	nasty := "a\\b\"c\nd"
	var c Counter
	var g Gauge
	var h Histogram
	r.ObserveCounter("batchdb_esc_total", "help with \\ and\nnewline", &c, L("path", nasty))
	r.ObserveGauge("batchdb_esc_gauge", "g", &g)
	r.ObserveHistogram("batchdb_esc_ns", "h", &h)
	c.Add(5)
	g.Set(-7)
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	samples, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exporter output does not parse: %v\noutput:\n%s", err, text)
	}

	var gotNasty bool
	for _, s := range samples {
		if s.Name == "batchdb_esc_total" {
			for _, l := range s.Labels {
				if l.Key == "path" && l.Value == nasty {
					gotNasty = true
				}
			}
			if s.Value != 5 {
				t.Fatalf("counter value %v, want 5", s.Value)
			}
		}
	}
	if !gotNasty {
		t.Fatalf("label value did not round-trip through escaping:\n%s", text)
	}

	// Histogram renders as a summary: quantiles + _sum + _count.
	for _, want := range []string{
		`batchdb_esc_ns{quantile="0.5"}`,
		`batchdb_esc_ns{quantile="0.9"}`,
		`batchdb_esc_ns{quantile="0.99"}`,
		"batchdb_esc_ns_sum", "batchdb_esc_ns_count",
		"# TYPE batchdb_esc_ns summary",
		"# TYPE batchdb_esc_total counter",
		"# TYPE batchdb_esc_gauge gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

// Counters must be monotone across scrapes even while being written.
func TestCountersMonotoneAcrossScrapes(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.ObserveCounter("batchdb_mono_total", "", &c)
	prev := -1.0
	for i := 0; i < 200; i++ {
		c.Add(uint64(i % 3))
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		samples, err := ParsePrometheus(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 1 {
			t.Fatalf("got %d samples, want 1", len(samples))
		}
		if samples[0].Value < prev {
			t.Fatalf("counter went backwards: %v after %v", samples[0].Value, prev)
		}
		prev = samples[0].Value
	}
}

func TestParsePrometheusRejectsInvalid(t *testing.T) {
	for _, bad := range []string{
		"no_type_comment 1\n",
		"# TYPE m counter\nm{l=unquoted} 1\n",
		"# TYPE m counter\nm{l=\"unterminated} 1\n",
		"# TYPE m counter\nm{1bad=\"v\"} 1\n",
		"# TYPE m counter\nm notanumber\n",
		"# TYPE m bogus\nm 1\n",
		"# TYPE m counter\n# TYPE m counter\nm 1\n",
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Fatalf("parser accepted invalid exposition:\n%s", bad)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.ObserveCounter("batchdb_http_total", "h", &c)
	c.Add(9)
	ts := httptest.NewServer(Handler(r, nil))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples, err := ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v := findParsed(t, samples, "batchdb_http_total").Value; v != 9 {
		t.Fatalf("scraped %v, want 9", v)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", hz.StatusCode)
	}

	// The runtime profiles are mounted beside the metrics.
	pp, err := http.Get(ts.URL + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(pp.Body)
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK || !strings.Contains(string(body), "heap profile") {
		t.Fatalf("/debug/pprof/heap status %d, body %.60q", pp.StatusCode, body)
	}
}

// /healthz follows the health func: 200 "ok" while it returns nil, 503
// with the error's text once it does not.
func TestHealthzReportsFailure(t *testing.T) {
	var failed atomic.Bool
	ts := httptest.NewServer(Handler(NewRegistry(), func() error {
		if failed.Load() {
			return errors.New("log write failed")
		}
		return nil
	}))
	defer ts.Close()
	get := func() (int, string) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get(); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthy: status %d body %q", code, body)
	}
	failed.Store(true)
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, "log write failed") {
		t.Fatalf("failed: status %d body %q", code, body)
	}
}

func TestServeLifecycle(t *testing.T) {
	r := NewRegistry()
	var g Gauge
	r.ObserveGauge("batchdb_serve_gauge", "", &g)
	g.Set(3)
	srv, err := Serve("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	findParsed(t, samples, "batchdb_serve_gauge")
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}
