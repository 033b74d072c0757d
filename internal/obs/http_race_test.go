package obs

// Scrape-under-load tests: the HTTP endpoints must serve internally
// consistent snapshots while observations land concurrently. Their full
// value is under -race (CI's instrumented job), but the consistency
// assertions hold on any run: a scraped histogram's cumulative buckets
// must be non-decreasing and its count must equal the last cumulative
// bucket — the invariant Prometheus rejects scrapes without.

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// checkHistConsistency asserts the snapshot invariant on one histogram.
func checkHistConsistency(t *testing.T, name string, hs HistSnapshot) {
	t.Helper()
	var prev int64
	for i, b := range hs.Buckets {
		if b.Count < prev {
			t.Errorf("%s: bucket %d cumulative count decreases: %d after %d", name, i, b.Count, prev)
		}
		prev = b.Count
	}
	if n := len(hs.Buckets); n > 0 && hs.Count != hs.Buckets[n-1].Count {
		t.Errorf("%s: count %d != last cumulative bucket %d", name, hs.Count, hs.Buckets[n-1].Count)
	}
}

// TestScrapeDuringObserve hammers one histogram and both HTTP endpoints
// concurrently and checks every scraped payload for the cumulative
// invariant — the exact tear the pre-fix Snapshot could produce (count
// read before buckets).
func TestScrapeDuringObserve(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(metricsMux(r))
	defer srv.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := r.Histogram("sched.ops_per_step")
			c := r.Counter("engine.tasks")
			v := seed
			for !stop.Load() {
				v = v*1664525 + 1013904223
				h.Observe(v % 4096)
				c.Inc()
				if v%512 == 0 {
					runtime.Gosched() // let the scraper through
				}
			}
		}(int64(w + 1))
	}

	client := srv.Client()
	for i := 0; i < 25; i++ {
		resp, err := client.Get(srv.URL + "/metrics.json")
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		for name, hs := range snap.Histograms {
			checkHistConsistency(t, name, hs)
		}

		resp, err = client.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		checkPromPayload(t, resp.Body, &promState{})
		resp.Body.Close()
	}
	stop.Store(true)
	wg.Wait()
}

type promState struct {
	buckets map[string]int64 // histogram -> last cumulative bucket seen
	counts  map[string]int64 // histogram -> _count value
}

// checkPromPayload parses a Prometheus text payload and asserts every
// histogram's buckets are non-decreasing and agree with _count.
func checkPromPayload(t *testing.T, body interface{ Read([]byte) (int, error) }, st *promState) {
	t.Helper()
	st.buckets = map[string]int64{}
	st.counts = map[string]int64{}
	lastSeen := map[string]int64{}
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		val, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		name := fields[0]
		switch {
		case strings.Contains(name, "_bucket{"):
			base := name[:strings.Index(name, "_bucket{")]
			if val < lastSeen[base] {
				t.Errorf("%s: cumulative bucket decreases: %q yields %d after %d", base, line, val, lastSeen[base])
			}
			lastSeen[base] = val
			st.buckets[base] = val
		case strings.HasSuffix(name, "_count"):
			st.counts[strings.TrimSuffix(name, "_count")] = val
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for base, cum := range st.buckets {
		if c, ok := st.counts[base]; ok && c != cum {
			t.Errorf("%s: _count %d != +Inf bucket %d", base, c, cum)
		}
	}
}

// TestSnapshotTornHistogram reconstructs the pre-fix tear directly: a
// histogram whose bucket cell is ahead of its count cell (exactly what a
// concurrent scrape can see between Observe's two Adds) must still
// snapshot consistently.
func TestSnapshotTornHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("torn")
	h.Observe(3)
	h.Observe(300)
	// Simulate an in-flight Observe caught between count.Add and
	// bucket.Add... by the opposite skew: bucket landed, count not yet.
	h.buckets[2].Add(1)
	snap := r.Snapshot().Histograms["torn"]
	checkHistConsistency(t, "torn", snap)
	if snap.Count != 3 {
		t.Errorf("count %d, want 3 (derived from buckets)", snap.Count)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	checkPromPayload(t, strings.NewReader(b.String()), &promState{})
}
