package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns an http.Handler serving the registry at /metrics in
// Prometheus text format, a health probe at /healthz, and the Go runtime
// profiles under /debug/pprof/ (CPU, heap, allocs, mutex, goroutine,
// trace), so "which layer is spending the time" can be answered on a
// running server. /healthz answers 200 "ok" while health (nil: always)
// returns nil, and 503 with the error's text once it does not.
func Handler(r *Registry, health func() error) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if health != nil {
			if err := health(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, err)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running metrics HTTP endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve starts an HTTP server for the registry and the health func (see
// Handler) on addr (e.g. "127.0.0.1:9464"; use port 0 to pick a free
// port). It returns once the listener is bound; serving continues in a
// background goroutine until Close.
func Serve(addr string, r *Registry, health func() error) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: Handler(r, health), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and waits for the serve goroutine to exit.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
