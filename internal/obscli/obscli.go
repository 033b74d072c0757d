// Package obscli is the observability layer's shared command-line
// surface: qsched and qbench both register the same flag set, build one
// obs.Observer from it, optionally serve live endpoints (Prometheus
// metrics, net/http/pprof) for the duration of the run, and write the
// trace / metrics / decision-log artifacts on exit.
package obscli

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"

	"github.com/scaffold-go/multisimd/internal/obs"
)

// Flags holds the observability command-line options.
type Flags struct {
	Trace         string // -trace: Chrome trace-event JSON output path
	MetricsOut    string // -metrics-out: JSON metrics snapshot path
	MetricsAddr   string // -metrics-addr: live Prometheus endpoint
	PprofAddr     string // -pprof-addr: live net/http/pprof endpoint
	Decisions     string // -decisions: scheduler decision-log path
	DecisionLevel string // -decision-level: off, step or op
}

// Register installs the flags on fs (flag.CommandLine in the tools).
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "",
		"write a Chrome trace-event JSON `file` of the run (open in Perfetto or chrome://tracing)")
	fs.StringVar(&f.MetricsOut, "metrics-out", "",
		"write a JSON metrics snapshot `file` on exit")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "",
		"serve Prometheus text metrics on `addr` (host:port) while the run is in flight")
	fs.StringVar(&f.PprofAddr, "pprof-addr", "",
		"serve net/http/pprof on `addr` (host:port) while the run is in flight")
	fs.StringVar(&f.Decisions, "decisions", "",
		"write the scheduler decision log to `file`")
	fs.StringVar(&f.DecisionLevel, "decision-level", "",
		"decision-log detail: off, step or op (defaults to step when -decisions is set)")
}

// enabled reports whether any observability output was requested.
func (f *Flags) enabled() bool {
	return f.Trace != "" || f.MetricsOut != "" || f.MetricsAddr != "" ||
		f.Decisions != "" || f.DecisionLevel != ""
}

// Setup builds the observer the flags describe and starts any live
// endpoints, announcing their addresses on w (the tools pass stderr so
// report output stays clean). It returns nil — free to thread through
// every option struct — when no observability flag was given.
func (f *Flags) Setup(w io.Writer) (*obs.Observer, error) {
	if !f.enabled() {
		return nil, nil
	}
	o := &obs.Observer{}
	if f.Trace != "" {
		o.Trace = obs.NewTracer()
	}
	if f.MetricsOut != "" || f.MetricsAddr != "" {
		o.Metrics = obs.NewRegistry()
	}
	level, err := obs.ParseLevel(f.DecisionLevel)
	if err != nil {
		return nil, err
	}
	if level == obs.LevelOff && f.Decisions != "" {
		level = obs.LevelStep
	}
	if level != obs.LevelOff {
		o.Decisions = obs.NewDecisionLog(level)
	}
	// Each endpoint family mounts on its address's mux: one listener
	// per distinct address, so -metrics-addr and -pprof-addr may name
	// the same one.
	muxes := map[string]*http.ServeMux{}
	bound := map[string]net.Addr{}
	for _, ep := range []struct {
		flag, addr, name, path string
		mount                  func(*http.ServeMux)
	}{
		{"-metrics-addr", f.MetricsAddr, "metrics", "/metrics", func(m *http.ServeMux) { obs.RegisterMetrics(m, o.Metrics) }},
		{"-pprof-addr", f.PprofAddr, "pprof", "/debug/pprof/", obs.RegisterPprof},
	} {
		if ep.addr == "" {
			continue
		}
		mux := muxes[ep.addr]
		if mux == nil {
			mux = http.NewServeMux()
			ln, err := obs.Serve(ep.addr, mux)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ep.flag, err)
			}
			muxes[ep.addr], bound[ep.addr] = mux, ln.Addr()
		}
		ep.mount(mux)
		fmt.Fprintf(w, "serving %s on http://%s%s\n", ep.name, bound[ep.addr], ep.path)
	}
	return o, nil
}

// Finish writes the artifacts the flags requested from what o gathered.
// Safe to call with a nil observer (writes nothing).
func (f *Flags) Finish(o *obs.Observer) error {
	if o == nil {
		return nil
	}
	if f.Trace != "" && o.Trace != nil {
		if err := o.Trace.WriteFile(f.Trace); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
	}
	if f.MetricsOut != "" && o.Metrics != nil {
		if err := o.Metrics.WriteJSONFile(f.MetricsOut); err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
	}
	if f.Decisions != "" && o.Decisions != nil {
		if err := o.Decisions.WriteFile(f.Decisions); err != nil {
			return fmt.Errorf("-decisions: %w", err)
		}
	}
	return nil
}
