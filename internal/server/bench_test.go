package server

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/request"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// BenchmarkWarmCompile measures one /v1/compile of a repeated request:
// every gated benchmark at k=2 and k=4, request defaults otherwise,
// against an in-process server preloaded with the committed
// bench/baselines/cas corpus and warmed before timing, so each source's
// build is in the build memo and each request's Metrics are stored
// with it. One op is one request; what it costs is the work the
// service does when the answer is already known (build-key hash, flight
// key, HTTP and JSON). It fails if a timed request reaches the engine.
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
	// The first pass promotes the preload's records into memory; k=2
	// and k=4 share a build key, so it also keeps every build, and the
	// k=4 evaluations store their answers. The second pass stores the
	// k=2 answers.
	for pass := 0; pass < 2; pass++ {
		for _, body := range bodies {
			compile(body)
		}
	}

	before, tasks := cache.Stats(), s.reg.Counter("engine.tasks").Value()
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
	if n := s.reg.Counter("engine.tasks").Value() - tasks; n != 0 {
		b.Fatalf("timed requests ran %d engine tasks", n)
	}
}

// BenchmarkColdCompile measures one /v1/compile of a source the server
// has never seen: each op is a unique generated program, so every op
// builds, schedules on an empty cache and passes through the build
// memo's admission path, which keeps nothing.
func BenchmarkColdCompile(b *testing.B) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	rng := rand.New(rand.NewSource(1))
	bodies := make([]string, b.N)
	for i := range bodies {
		src, err := verify.ProgramScaffold(verify.RandomProgram(rng, verify.ProgramGenOptions{LeafOps: 16, Loops: true}))
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(request.Config{Source: src, K: 2 + 2*(i%2)})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = string(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, body := range bodies {
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
			b.Fatalf("status %d: %s", resp.StatusCode, data)
		}
	}
	b.StopTimer()
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	if n := len(s.memo.entries); n != 0 {
		b.Fatalf("unique sources left %d builds in the memo", n)
	}
}
