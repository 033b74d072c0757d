package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/request"
)

// TestWarmCompileAllocBudget pins one warm /v1/compile (the gated SHA-1
// at k=4 over the committed cas corpus, served from memory) to its
// measured allocation count, ±5%. The request builds the program, hashes
// every module once for both its key and the leaf lookups, and composes
// from cached dims. Copying leaf bodies at build time, as flattening
// once did, adds over 300 allocations and fails here.
func TestWarmCompileAllocBudget(t *testing.T) {
	const want = 4061
	cache, err := core.OpenEvalCache(core.CacheConfig{Preload: "../../bench/baselines/cas"})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Cache: cache})
	t.Cleanup(func() {
		s.Close()
		cache.Close()
	})
	h := s.Handler()
	compile := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader(`{"bench":"SHA-1","k":4}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	compile() // promote the preload's records into memory
	before := cache.Stats()
	got := testing.AllocsPerRun(20, compile)
	if d := cache.Stats().Sub(before); d.CommMisses != 0 || d.SchedMisses != 0 || d.CPMisses != 0 || d.DiskHits != 0 {
		t.Fatalf("measured requests left memory: %+v", d)
	}
	if got < want-want/20 || got > want+want/20 {
		t.Errorf("warm /v1/compile allocates %.0f times, budget %d (±5%%)", got, want)
	}
}

// structuredSource is a program whose one leaf at the paper's FTh, main,
// expands to 50,000 gates: 500 counted calls of a 100-gate module.
func structuredSource() string {
	var sb strings.Builder
	sb.WriteString("module sub(qbit a, qbit b) {\n")
	for i := 0; i < 50; i++ {
		sb.WriteString("  H(a);\n  CNOT(a, b);\n")
	}
	sb.WriteString("}\nmodule main() {\n  qbit q[2];\n  for (i = 0; i < 500; i++) {\n    sub(q[0], q[1]);\n  }\n}\n")
	return sb.String()
}

// TestCompileLargeFThStaysStructured sends a program with fth 2,000,000,
// which makes it one 50,000-gate leaf. Building it allocates a small
// fraction of that leaf's expanded body (the body is not copied at
// build time), and the compile answers 200 with the leaf's metrics.
func TestCompileLargeFThStaysStructured(t *testing.T) {
	src := structuredSource()
	cfg := request.Config{Source: src, FTh: 2_000_000}.WithDefaults()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := cfg.Build(nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	main := p.EntryModule()
	if !main.IsLeaf() || main.MaterializedSize() != 50_000 {
		t.Fatalf("main: leaf %v, %d ops expanded", main.IsLeaf(), main.MaterializedSize())
	}
	body := uint64(main.MaterializedSize()) * uint64(unsafe.Sizeof(ir.Op{}))
	if built := after.TotalAlloc - before.TotalAlloc; built > body/4 {
		t.Errorf("build allocated %d bytes; the expanded body alone is %d", built, body)
	}

	_, ts := newTestServer(t, Options{})
	resp, data := post(t, ts.URL+"/v1/compile", fmt.Sprintf(`{"source":%q,"fth":2000000}`, src))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var cr CompileResponse
	decodeInto(t, data, &cr)
	if m := cr.Metrics; m.TotalGates != 50_000 || m.Leaves != 1 || m.Modules != 1 || m.ZeroCommSteps != 50_000 {
		t.Errorf("metrics %+v", m)
	}
}
