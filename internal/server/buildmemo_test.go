package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/request"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// memoCounts reads the memo's counters and size under its lock.
func memoCounts(s *Server) (hits, misses, entries, bytes int64) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.memo.hits.Value(), s.memo.misses.Value(), int64(len(s.memo.entries)), s.memo.bytes
}

// memoSnapshot copies the memo's entries under its lock.
func memoSnapshot(s *Server) map[buildKey]builtProgram {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	out := map[buildKey]builtProgram{}
	for k, el := range s.memo.entries {
		out[k] = el.Value.(*memoEntry).b
	}
	return out
}

func openCorpus(t *testing.T) *core.EvalCache {
	t.Helper()
	cache, err := core.OpenEvalCache(core.CacheConfig{Preload: "../../bench/baselines/cas"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	return cache
}

// gatedBodies is one /v1/compile body per gated benchmark at each k.
func gatedBodies(t *testing.T, ks ...int) []string {
	t.Helper()
	var bodies []string
	for _, bm := range bench.Gated() {
		for _, k := range ks {
			body, err := json.Marshal(request.Config{Bench: bm.Name, K: k})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, string(body))
		}
	}
	return bodies
}

func mustPost(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, data := post(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", url, body, resp.StatusCode, data)
	}
	return data
}

// TestWarmRequestBuildsNothing: once a source has been seen twice, its
// requests build nothing. After two warm-up passes over the gated set at
// k=2 and k=4 (k is not part of the build key, so the pair is two
// sightings already), a third pass is all memo hits and no misses: a
// warm request that ran core.Build (and so Program.Digests) again would
// count a miss.
func TestWarmRequestBuildsNothing(t *testing.T) {
	s, ts := newTestServer(t, Options{Cache: openCorpus(t)})
	bodies := gatedBodies(t, 2, 4)
	for pass := 0; pass < 2; pass++ {
		for _, body := range bodies {
			mustPost(t, ts.URL+"/v1/compile", body)
		}
	}
	hits0, misses0, entries, _ := memoCounts(s)
	if want := int64(len(bench.Gated())); entries != want {
		t.Fatalf("after warm-up the memo holds %d builds, want %d", entries, want)
	}
	for _, body := range bodies {
		mustPost(t, ts.URL+"/v1/compile", body)
	}
	hits, misses, _, _ := memoCounts(s)
	if misses != misses0 || hits-hits0 != int64(len(bodies)) {
		t.Errorf("a warm pass of %d requests added %d misses and %d hits, want 0 and %d",
			len(bodies), misses-misses0, hits-hits0, len(bodies))
	}
}

// TestBuildMemoAdmitsOnSecondSighting: unique sources leave no entry,
// a repeated source is kept on its second request and served from the
// memo on its third.
func TestBuildMemoAdmitsOnSecondSighting(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	rng := rand.New(rand.NewSource(7))
	gen := verify.ProgramGenOptions{LeafOps: 8, ModulesPerLevel: 2}
	source := func() string {
		src, err := verify.ProgramScaffold(verify.RandomProgram(rng, gen))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for i := 0; i < 50; i++ {
		mustPost(t, ts.URL+"/v1/compile", compileBody(source(), "lpfs", 2))
	}
	hits, misses, entries, bytes := memoCounts(s)
	if entries != 0 || bytes != 0 || hits != 0 || misses != 50 {
		t.Fatalf("after 50 unique sources: %d entries, %d bytes, %d hits, %d misses; want 0, 0, 0, 50",
			entries, bytes, hits, misses)
	}
	if g := s.reg.Gauge("server.build_memo.bytes").Value(); g != 0 {
		t.Errorf("server.build_memo.bytes reads %d", g)
	}

	body := compileBody(source(), "rcp", 2)
	for i, want := range []struct{ hits, misses, entries int64 }{
		{0, 51, 0}, // first sighting: built, not kept
		{0, 52, 1}, // second sighting: built and kept
		{1, 52, 1}, // served from the memo
	} {
		mustPost(t, ts.URL+"/v1/compile", body)
		hits, misses, entries, bytes := memoCounts(s)
		if hits != want.hits || misses != want.misses || entries != want.entries {
			t.Errorf("request %d of the repeated source: %d hits, %d misses, %d entries; want %+v",
				i+1, hits, misses, entries, want)
		}
		if g := s.reg.Gauge("server.build_memo.bytes").Value(); g != bytes {
			t.Errorf("request %d: gauge reads %d bytes, memo holds %d", i+1, g, bytes)
		}
	}
}

// TestBuildMemoStaysUnderCap fills the memo far past its byte cap: the
// estimate never exceeds it, the least recently used builds go first,
// and every eviction is counted.
func TestBuildMemoStaysUnderCap(t *testing.T) {
	s := New(Options{SampleEvery: -1})
	defer s.Close()
	p, err := request.Config{Bench: "QPE"}.WithDefaults().Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	b := builtProgram{p: p, d: p.Digests()}
	fit := int(memoCapBytes / b.size())
	var first buildKey
	for i := 0; i < 3*fit; i++ {
		k := request.Config{Source: fmt.Sprintf("// %d\n", i), Entry: "main"}.BuildKey()
		if i == 0 {
			first = k
		}
		s.memo.offer(k, b)
		s.memo.offer(k, b)
		if s.memo.bytes > memoCapBytes {
			t.Fatalf("after %d builds the memo holds %d bytes, cap %d", i+1, s.memo.bytes, memoCapBytes)
		}
		if i == 0 {
			if _, ok := s.memo.get(first); !ok {
				t.Fatal("a build offered twice was not kept")
			}
		}
	}
	if _, ok := s.memo.get(first); ok {
		t.Error("the least recently used build survived the cap")
	}
	if n, ev := len(s.memo.entries), s.memo.evictions.Value(); n != fit || ev != int64(2*fit) {
		t.Errorf("%d entries and %d evictions, want %d and %d", n, ev, fit, 2*fit)
	}
}

// TestVerifyReplacesStaleBuild plants another source's build under
// Grovers' key. /v1/compile is served from the memo and so answers with
// the wrong program's metrics; /v1/verify builds from source, rejects
// the entry (422, counted in verify.rejections) and replaces it, and
// the next /v1/compile answers with Grovers' own metrics.
func TestVerifyReplacesStaleBuild(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	cfg := request.Config{Bench: "Grovers"}.WithDefaults()
	p, err := cfg.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	eopts, err := cfg.EvalOptions()
	if err != nil {
		t.Fatal(err)
	}
	honest, err := core.Evaluate(p, eopts)
	if err != nil {
		t.Fatal(err)
	}
	other, err := request.Config{Bench: "BF"}.WithDefaults().Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	key := cfg.BuildKey()
	s.memo.mu.Lock()
	s.memo.putLocked(key, builtProgram{p: other, d: other.Digests()})
	s.memo.mu.Unlock()

	body := `{"bench": "Grovers"}`
	compile := func() MetricsBody {
		var cr CompileResponse
		decodeInto(t, mustPost(t, ts.URL+"/v1/compile", body), &cr)
		return cr.Metrics
	}
	if got := compile(); got == honest.Wire() {
		t.Fatal("the planted build was not served")
	}
	rejections := s.reg.Counter("verify.rejections").Value()
	resp, data := post(t, ts.URL+"/v1/verify", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("verify over the planted build: %d: %s", resp.StatusCode, data)
	}
	var er ErrorResponse
	decodeInto(t, data, &er)
	if er.Error.Code != CodeEvalFailed || !strings.Contains(er.Error.Message, "build memo entry differs from a fresh build") {
		t.Errorf("verify error %+v", er.Error)
	}
	if got := s.reg.Counter("verify.rejections").Value() - rejections; got != 1 {
		t.Errorf("verify.rejections grew by %d, want 1", got)
	}
	if b, ok := memoSnapshot(s)[key]; !ok || !reflect.DeepEqual(b.d, p.Digests()) {
		t.Errorf("after the rejection the memo holds %v (kept %v), want Grovers' build", b.d.Program, ok)
	}
	if got := compile(); got != honest.Wire() {
		t.Errorf("after the rejection /v1/compile serves %+v, want %+v", got, honest.Wire())
	}
	mustPost(t, ts.URL+"/v1/verify", body)
	if got := s.reg.Counter("verify.rejections").Value() - rejections; got != 1 {
		t.Errorf("a verify over the replaced build counted a rejection (%d in all)", got)
	}
}

// TestMemoizedProgramsStayFrozen sends /v1/compile, /v1/report,
// /v1/verify and /v1/schedule concurrently over the gated set ×
// {lpfs, rcp} × k∈{2,4}, every one served the same memoized programs.
// Afterwards each entry is the build kept during warm-up, and re-hashing
// it reproduces the digests stored when it was kept: no request wrote
// to a shared program.
func TestMemoizedProgramsStayFrozen(t *testing.T) {
	s, ts := newTestServer(t, Options{Cache: openCorpus(t), MaxQueue: 256})
	type call struct{ path, body string }
	var calls []call
	for _, bm := range bench.Gated() {
		for pass := 0; pass < 2; pass++ {
			mustPost(t, ts.URL+"/v1/compile", fmt.Sprintf(`{"bench": %q}`, bm.Name))
		}
		p, err := request.Config{Bench: bm.Name}.WithDefaults().Build(nil)
		if err != nil {
			t.Fatal(err)
		}
		leaf := firstLeaf(p)
		for _, sched := range []string{"lpfs", "rcp"} {
			for _, k := range []int{2, 4} {
				cfg := fmt.Sprintf(`"bench": %q, "scheduler": %q, "k": %d`, bm.Name, sched, k)
				calls = append(calls,
					call{"/v1/compile", "{" + cfg + "}"},
					call{"/v1/report", "{" + cfg + "}"},
					call{"/v1/verify", "{" + cfg + "}"},
					call{"/v1/schedule", fmt.Sprintf(`{%s, "module": %q}`, cfg, leaf)})
			}
		}
	}
	kept := memoSnapshot(s)
	if len(kept) != len(bench.Gated()) {
		t.Fatalf("warm-up kept %d builds, want %d", len(kept), len(bench.Gated()))
	}

	const clients = 4
	next := make(chan call, len(calls))
	for _, cl := range calls {
		next <- cl
	}
	close(next)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cl := range next {
				resp, err := http.Post(ts.URL+cl.path, "application/json", strings.NewReader(cl.body))
				if err != nil {
					t.Error(err)
					continue
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s %s: status %d: %s", cl.path, cl.body, resp.StatusCode, data)
				}
			}
		}()
	}
	wg.Wait()

	after := memoSnapshot(s)
	for k, b := range kept {
		if a, ok := after[k]; !ok || a.p != b.p {
			t.Errorf("build %x was replaced or evicted", k[:4])
			continue
		}
		if got := b.p.Digests(); !reflect.DeepEqual(got, b.d) {
			t.Errorf("build %x changed under requests: program digest %s, kept %s", k[:4], got.Program, b.d.Program)
		}
	}
}

// firstLeaf names p's first leaf module in definition order.
func firstLeaf(p *ir.Program) string {
	for _, name := range p.Order {
		if p.Modules[name].IsLeaf() {
			return name
		}
	}
	return ""
}
