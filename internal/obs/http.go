package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// RegisterMetrics mounts the registry's endpoints on an existing mux:
// Prometheus text format at /metrics, the JSON snapshot at
// /metrics.json. Sharing a mux — rather than spawning a dedicated
// listener per pillar — is how the service daemon exposes API, metrics
// and pprof on one port without conflicts.
func RegisterMetrics(mux *http.ServeMux, r *Registry) {
	prom := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	}
	mux.HandleFunc("/metrics", prom)
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}

// RegisterPprof mounts net/http/pprof's handlers on an existing mux
// (the stdlib only self-registers on http.DefaultServeMux):
// /debug/pprof/ for the index, /debug/pprof/profile for CPU,
// /debug/pprof/heap, and so on.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Serve binds addr and serves h on it in the background. The returned
// listener reports the bound address and stops the server when closed.
func Serve(addr string, h http.Handler) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = http.Serve(ln, h) }()
	return ln, nil
}
