package core_test

import (
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
)

// TestBuildAllocBudget pins core.Build of the gated SHA-1 at FTh 2000
// to its measured allocation count. Flattening marks leaves instead of
// copying callee bodies, rotation modules are two exactly sized
// allocations, the parser holds one token at a time, and validation
// allocates nothing per gate or call; a per-op allocation coming back
// adds thousands and fails here.
func TestBuildAllocBudget(t *testing.T) {
	const want = 3281
	b, ok := bench.ByName("SHA-1")
	if !ok {
		t.Fatal("no SHA-1 benchmark")
	}
	opts := b.Pipeline
	opts.FTh = 2000
	got := testing.AllocsPerRun(20, func() {
		if _, err := core.Build(b.Source, opts); err != nil {
			t.Fatal(err)
		}
	})
	if got < want-want/20 || got > want+want/20 {
		t.Errorf("core.Build allocates %.0f times, budget %d (±5%%)", got, want)
	}
}
