package server

import (
	"encoding/json"
	"errors"
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
	"github.com/scaffold-go/multisimd/internal/obs"
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

// memoRecount re-derives the memo's byte estimate from its entries and
// their answers, checking each entry's own count on the way.
func memoRecount(t *testing.T, m *buildMemo) int64 {
	t.Helper()
	var total int64
	for _, el := range m.entries {
		e := el.Value.(*memoEntry)
		n := e.b.size()
		for key := range e.answers {
			n += answerSize(key)
		}
		if n != e.bytes {
			t.Fatalf("entry %x counts %d bytes, holds %d", e.key[:4], e.bytes, n)
		}
		total += n
	}
	return total
}

// TestBuildMemoStaysUnderCap fills the memo far past its byte cap with
// builds that each carry two stored answers: the estimate, answers
// included, never exceeds the cap and always equals what the entries
// hold; the least recently used builds go first, taking their answers
// with them; every eviction is counted; and a build a Verify request
// replaces loses its answers.
func TestBuildMemoStaysUnderCap(t *testing.T) {
	s := New(Options{SampleEvery: -1})
	defer s.Close()
	cfg := request.Config{Bench: "QPE"}.WithDefaults()
	p, err := cfg.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	b := builtProgram{p: p, d: p.Digests()}
	fp := b.d.Program
	var keys []string
	for _, k := range []int{2, 4} {
		c := cfg
		c.K = k
		keys = append(keys, c.KeyOf(fp))
	}
	per := b.size() + answerSize(keys[0]) + answerSize(keys[1])
	fit := int(memoCapBytes / per)
	var first, last buildKey
	for i := 0; i < 3*fit; i++ {
		k := request.Config{Source: fmt.Sprintf("// %d\n", i), Entry: "main"}.BuildKey()
		if i == 0 {
			first = k
		}
		last = k
		s.memo.offer(k, b)
		s.memo.offer(k, b)
		for _, key := range keys {
			s.memo.keep(k, fp, key, core.Metrics{TotalGates: int64(i)}, s.memo.epoch())
		}
		if s.memo.bytes > memoCapBytes {
			t.Fatalf("after %d builds the memo holds %d bytes, cap %d", i+1, s.memo.bytes, memoCapBytes)
		}
		if n := memoRecount(t, s.memo); n != s.memo.bytes {
			t.Fatalf("after %d builds the memo counts %d bytes, its entries hold %d", i+1, s.memo.bytes, n)
		}
		if i == 0 {
			if _, ok := s.memo.get(first); !ok {
				t.Fatal("a build offered twice was not kept")
			}
			if m, ok := s.memo.answer(first, keys[1]); !ok || m.TotalGates != 0 {
				t.Fatalf("a kept answer reads %+v (%v)", m, ok)
			}
		}
	}
	if _, ok := s.memo.get(first); ok {
		t.Error("the least recently used build survived the cap")
	}
	if _, ok := s.memo.answer(first, keys[0]); ok {
		t.Error("an evicted build's answer is still served")
	}
	if n, ev := len(s.memo.entries), s.memo.evictions.Value(); n != fit || ev != int64(2*fit) {
		t.Errorf("%d entries and %d evictions, want %d and %d", n, ev, fit, 2*fit)
	}

	other, err := request.Config{Bench: "BF"}.WithDefaults().Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.memo.keep(last, other.Fingerprint(), "other", core.Metrics{}, s.memo.epoch())
	if _, ok := s.memo.answer(last, "other"); ok {
		t.Error("an answer for another program was stored on the entry")
	}
	if err := s.memo.check(last, builtProgram{p: other, d: other.Digests()}); !errors.Is(err, errStaleBuild) {
		t.Fatalf("check of a different build: %v", err)
	}
	for _, key := range keys {
		if _, ok := s.memo.answer(last, key); ok {
			t.Errorf("a replaced build's answer under %s is still served", key)
		}
	}
	if n := memoRecount(t, s.memo); n != s.memo.bytes || s.memo.bytes > memoCapBytes {
		t.Errorf("after the replacement the memo counts %d bytes, its entries hold %d, cap %d", s.memo.bytes, n, memoCapBytes)
	}
	if g := s.reg.Gauge("server.build_memo.bytes").Value(); g != s.memo.bytes {
		t.Errorf("gauge reads %d bytes, memo holds %d", g, s.memo.bytes)
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
// {lpfs, rcp} × k∈{2,4}, every one served the same memoized programs,
// and interleaves with them memo-served compiles and verifies of one
// key, whose verifies replace the answer the compiles read.
// Afterwards each entry is the build kept during warm-up, re-hashing
// it reproduces the digests stored when it was kept (no request wrote
// to a shared program), and the hot key's stored answer is the honest
// one.
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
	hot := fmt.Sprintf(`{"bench": %q}`, bench.Gated()[0].Name)
	var honest VerifyResponse
	decodeInto(t, mustPost(t, ts.URL+"/v1/verify", hot), &honest)
	hits := s.reg.Counter("server.build_memo.answer_hits")
	hits0 := hits.Value()
	for i := 0; i < 16; i++ {
		calls = append(calls, call{"/v1/compile", hot}, call{"/v1/verify", hot})
	}
	rand.New(rand.NewSource(3)).Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })

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
	if hits.Value() == hits0 {
		t.Error("no compile of the hot key was answered from the memo")
	}
	var again CompileResponse
	decodeInto(t, mustPost(t, ts.URL+"/v1/compile", hot), &again)
	if again.Metrics != honest.Metrics {
		t.Errorf("after concurrent verifies the hot key answers %+v, want %+v", again.Metrics, honest.Metrics)
	}

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

// TestRepeatedRequestServedFromMemo: the first two identical requests
// evaluate (the second sighting keeps the build, and its evaluation
// stores its answer); the third is answered from the memo. It runs no
// engine task, returns the same Metrics, counts one answer hit and
// logs role "memo" with the flight key and fingerprint but no cache
// block. A /v1/report and a /v1/verify of the same request still
// evaluate.
func TestRepeatedRequestServedFromMemo(t *testing.T) {
	var buf syncBuffer
	s, ts := newTestServer(t, Options{AccessLog: obs.NewAccessLog(&buf)})
	body := compileBody(tinySource, "lpfs", 2)
	tasks := s.reg.Counter("engine.tasks")
	hits := s.reg.Counter("server.build_memo.answer_hits")
	var got [3]CompileResponse
	var tasks0 int64
	for i := range got {
		if i == 2 {
			if n := hits.Value(); n != 0 {
				t.Fatalf("two requests counted %d answer hits", n)
			}
			tasks0 = tasks.Value()
		}
		resp, data := postWithID(t, ts.URL+"/v1/compile", fmt.Sprintf("rep-%d", i), body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
		}
		decodeInto(t, data, &got[i])
	}
	if n := tasks.Value() - tasks0; n != 0 {
		t.Errorf("the memo-served request ran %d engine tasks", n)
	}
	if got[2].Metrics != got[1].Metrics || got[1].Metrics != got[0].Metrics {
		t.Errorf("answers differ: %+v, %+v, %+v", got[0].Metrics, got[1].Metrics, got[2].Metrics)
	}
	if n := hits.Value(); n != 1 {
		t.Errorf("server.build_memo.answer_hits reads %d, want 1", n)
	}
	evaluated, served := waitForEntry(t, &buf, "rep-1"), waitForEntry(t, &buf, "rep-2")
	if evaluated.Role != "solo" || evaluated.Cache == nil {
		t.Errorf("second request logged role %q, cache %+v; want an evaluation", evaluated.Role, evaluated.Cache)
	}
	if served.Role != "memo" || served.Cache != nil || served.EvalMS != 0 || served.QueueWaitMS != 0 {
		t.Errorf("memo-served record: role %q, cache %+v, eval %v ms, queue %v ms", served.Role, served.Cache, served.EvalMS, served.QueueWaitMS)
	}
	if served.Key != evaluated.Key || served.Fingerprint != evaluated.Fingerprint || served.Fingerprint == "" {
		t.Errorf("memo-served record keys %q / %q, evaluated %q / %q", served.Key, served.Fingerprint, evaluated.Key, evaluated.Fingerprint)
	}

	for _, path := range []string{"/v1/report", "/v1/verify"} {
		before := tasks.Value()
		mustPost(t, ts.URL+path, body)
		if tasks.Value() == before {
			t.Errorf("%s ran no engine task", path)
		}
	}
	if n := hits.Value(); n != 1 {
		t.Errorf("report and verify counted %d answer hits in all, want 1", n)
	}
}

// TestVerifyInvalidatesStoredAnswers plants a wrong comm entry: a
// record rewritten on disk, which the first request promotes into
// memory. Plain requests are served it, the third from the answer the
// second stored. /v1/verify rejects the entry and replaces it; the
// rejection invalidates every stored answer, so the next plain request
// evaluates again and returns the honest Metrics, and the one after is
// answered from the memo with them.
func TestVerifyInvalidatesStoredAnswers(t *testing.T) {
	dir := t.TempDir()
	body := `{"bench": "Grovers", "scheduler": "lpfs", "k": 2}`
	compile := func(url string) MetricsBody {
		t.Helper()
		var cr CompileResponse
		decodeInto(t, mustPost(t, url+"/v1/compile", body), &cr)
		return cr.Metrics
	}
	cache1, err := core.OpenEvalCache(core.CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Options{Cache: cache1})
	honest := compile(ts1.URL)
	ts1.Close()
	cache1.Close()
	tamperCommRecord(t, dir)

	cache2, err := core.OpenEvalCache(core.CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	s, ts := newTestServer(t, Options{Cache: cache2})
	hits := s.reg.Counter("server.build_memo.answer_hits")
	for i := 0; i < 3; i++ {
		if got := compile(ts.URL); got == honest {
			t.Fatalf("request %d: the planted entry was not served", i+1)
		}
	}
	if n := hits.Value(); n != 1 {
		t.Fatalf("three plain requests counted %d answer hits, want 1", n)
	}
	if resp, data := post(t, ts.URL+"/v1/verify", body); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("verify over the planted entry: %d: %s", resp.StatusCode, data)
	}
	if got := compile(ts.URL); got != honest {
		t.Errorf("after the rejection /v1/compile serves %+v, want %+v", got, honest)
	}
	if n := hits.Value(); n != 1 {
		t.Errorf("the answer stored before the rejection was served (%d answer hits)", n)
	}
	if got := compile(ts.URL); got != honest || hits.Value() != 2 {
		t.Errorf("the re-evaluated answer: %+v with %d answer hits, want %+v from the memo", got, hits.Value(), honest)
	}
}
