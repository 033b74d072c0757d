package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/request"
)

// BenchmarkWarmCompile measures one /v1/compile on a warm cache: every
// gated benchmark at k=2 and k=4, request defaults otherwise, against
// an in-process server preloaded with the committed bench/baselines/cas
// corpus and warmed before timing, so each request is served from
// memory. One op is one request; what it costs is the work the service
// does when nothing needs scheduling (front end, fingerprint, cache
// lookups, coarse compose, HTTP and JSON).
func BenchmarkWarmCompile(b *testing.B) {
	cache, err := core.OpenEvalCache(core.CacheConfig{Preload: "../../bench/baselines/cas"})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Options{Cache: cache})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
		cache.Close()
	}()

	var bodies []string
	for _, bm := range bench.Gated() {
		for _, k := range []int{2, 4} {
			body, err := json.Marshal(request.Config{Bench: bm.Name, K: k})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, string(body))
		}
	}
	compile := func(body string) {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("%s: status %d: %s", body, resp.StatusCode, data)
		}
	}
	// The first pass promotes the preload's records into memory.
	for _, body := range bodies {
		compile(body)
	}

	before := cache.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compile(bodies[i%len(bodies)])
	}
	b.StopTimer()
	d := cache.Stats().Sub(before)
	if d.CommMisses != 0 || d.SchedMisses != 0 || d.CPMisses != 0 || d.DiskHits != 0 || d.DiskMisses != 0 {
		b.Fatalf("timed requests left memory: %+v", d)
	}
}
