package core_test

// Scrape-under-evaluation race test: the obs HTTP endpoints serve live
// Prometheus and JSON snapshots while the engine's worker pool hammers
// the same registry. Run under -race in CI's instrumented job; the
// consistency assertions (cumulative histogram buckets non-decreasing,
// count equal to the +Inf bucket) hold on any run.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/obs"
)

func TestScrapeDuringEvaluate(t *testing.T) {
	progs := engineWorkloads(t)
	p := progs["SHA-1"]
	if p == nil {
		t.Fatal("no SHA-1 workload")
	}
	reg := obs.NewRegistry()
	mux := http.NewServeMux()
	obs.RegisterMetrics(mux, reg)
	ln, err := obs.Serve("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	var stop atomic.Bool
	scraped := make(chan int, 1)
	go func() {
		n := 0
		for !stop.Load() {
			resp, err := http.Get(base + "/metrics.json")
			if err != nil {
				continue
			}
			var snap obs.Snapshot
			decErr := json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if decErr != nil {
				t.Errorf("scrape: %v", decErr)
				break
			}
			for name, hs := range snap.Histograms {
				var prev int64
				for i, b := range hs.Buckets {
					if b.Count < prev {
						t.Errorf("%s: bucket %d decreases: %d after %d", name, i, b.Count, prev)
					}
					prev = b.Count
				}
				if l := len(hs.Buckets); l > 0 && hs.Count != hs.Buckets[l-1].Count {
					t.Errorf("%s: count %d != +Inf bucket %d", name, hs.Count, hs.Buckets[l-1].Count)
				}
			}

			resp, err = http.Get(base + "/metrics")
			if err != nil {
				continue
			}
			checkPromScrape(t, resp)
			resp.Body.Close()
			n++
		}
		scraped <- n
	}()

	o := &obs.Observer{Metrics: reg}
	for run := 0; run < 6; run++ {
		opts := core.EvalOptions{K: 4, Workers: 8, Obs: o}
		if _, err := core.Evaluate(p, opts); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	if n := <-scraped; n == 0 {
		t.Log("no scrape completed during the evaluations (slow host); race coverage reduced")
	}
}

// checkPromScrape asserts bucket monotonicity and _count agreement on a
// live Prometheus payload.
func checkPromScrape(t *testing.T, resp *http.Response) {
	t.Helper()
	last := map[string]int64{}
	counts := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed line %q", line)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		switch name := fields[0]; {
		case strings.Contains(name, "_bucket{"):
			hist := name[:strings.Index(name, "_bucket{")]
			if v < last[hist] {
				t.Errorf("%s: cumulative bucket decreases (%d after %d)", hist, v, last[hist])
			}
			last[hist] = v
		case strings.HasSuffix(name, "_count"):
			counts[strings.TrimSuffix(name, "_count")] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for hist, cum := range last {
		if c, ok := counts[hist]; ok && c != cum {
			t.Errorf("%s: _count %d != +Inf bucket %d", hist, c, cum)
		}
	}
}
