package obscli

import (
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/obs"
)

func TestSetupDisabledReturnsNil(t *testing.T) {
	var f Flags
	o, err := f.Setup(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		t.Fatal("no flags set but observer built")
	}
	if err := f.Finish(o); err != nil {
		t.Fatal(err)
	}
}

func TestSetupBuildsRequestedPillars(t *testing.T) {
	f := Flags{Trace: "t.json", MetricsOut: "m.json", Decisions: "d.log"}
	o, err := f.Setup(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.Trace == nil || o.Metrics == nil || o.Decisions == nil {
		t.Fatalf("missing pillar: %+v", o)
	}
	// -decisions without -decision-level defaults to step.
	if !o.Decisions.Enabled(obs.LevelStep) || o.Decisions.Enabled(obs.LevelOp) {
		t.Error("default decision level is not step")
	}
}

func TestSetupRejectsBadLevel(t *testing.T) {
	f := Flags{DecisionLevel: "chatty"}
	if _, err := f.Setup(io.Discard); err == nil {
		t.Error("bad -decision-level accepted")
	}
}

// freeAddrs reserves n distinct free ports, holding each until all are
// taken, and releases them.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		probe, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer probe.Close()
		addrs[i] = probe.Addr().String()
	}
	return addrs
}

// TestSetupSharedMetricsPprofAddr is the single-port regression test:
// pointing -metrics-addr and -pprof-addr at the same address must bind
// one listener serving both endpoint families, not fail with "address
// already in use". On separate addresses each family is served on its
// own address only.
func TestSetupSharedMetricsPprofAddr(t *testing.T) {
	addrs := freeAddrs(t, 3)
	for _, tc := range []struct {
		name                   string
		metricsAddr, pprofAddr string
	}{
		{"shared", addrs[0], addrs[0]},
		{"separate", addrs[1], addrs[2]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := Flags{MetricsAddr: tc.metricsAddr, PprofAddr: tc.pprofAddr}
			var banner strings.Builder
			o, err := f.Setup(&banner)
			if err != nil {
				t.Fatalf("metrics %s, pprof %s rejected: %v", tc.metricsAddr, tc.pprofAddr, err)
			}
			if o == nil || o.Metrics == nil {
				t.Fatal("setup built no metrics registry")
			}
			o.Metrics.Counter("test.shared").Inc()

			type check struct {
				addr, path string
				status     int
			}
			checks := []check{
				{tc.metricsAddr, "/metrics", http.StatusOK},
				{tc.metricsAddr, "/metrics.json", http.StatusOK},
				{tc.pprofAddr, "/debug/pprof/", http.StatusOK},
			}
			if tc.metricsAddr != tc.pprofAddr {
				checks = append(checks,
					check{tc.metricsAddr, "/debug/pprof/", http.StatusNotFound},
					check{tc.pprofAddr, "/metrics", http.StatusNotFound})
			}
			for _, c := range checks {
				resp, err := http.Get("http://" + c.addr + c.path)
				if err != nil {
					t.Fatalf("GET %s%s: %v", c.addr, c.path, err)
				}
				resp.Body.Close()
				if resp.StatusCode != c.status {
					t.Errorf("GET %s%s: status %d, want %d", c.addr, c.path, resp.StatusCode, c.status)
				}
			}
			for _, want := range []string{"http://" + tc.metricsAddr + "/metrics", "http://" + tc.pprofAddr + "/debug/pprof/"} {
				if !strings.Contains(banner.String(), want) {
					t.Errorf("setup banner %q missing %s", banner.String(), want)
				}
			}
		})
	}
}

func TestFinishWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		Trace:      filepath.Join(dir, "t.json"),
		MetricsOut: filepath.Join(dir, "m.json"),
		Decisions:  filepath.Join(dir, "d.log"),
	}
	o, err := f.Setup(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sp := o.Trace.Span("test", "work")
	sp.End()
	o.Metrics.Counter("test.count").Inc()
	o.Decisions.Record(obs.LevelStep, obs.Decision{Scheduler: "rcp", Module: "m", Op: -1})
	if err := f.Finish(o); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{f.Trace, f.MetricsOut, f.Decisions} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}
