package core_test

import (
	"context"
	"maps"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
)

func buildGated(t *testing.T, name string) *ir.Program {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %s", name)
	}
	p, err := core.Build(b.Source, b.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEvaluateDigestsKeysByHandedDigests evaluates Grovers, then QFT
// handed Grovers' leaf digest for its own leaf. The QFT evaluation is
// served entirely from the cache entries keyed by that digest and
// reports Grovers' schedule lengths over QFT's own gate count: the
// engine looked its leaf up by the digest it was handed and did not
// hash the leaf itself.
func TestEvaluateDigestsKeysByHandedDigests(t *testing.T) {
	a, b := buildGated(t, "Grovers"), buildGated(t, "QFT")
	da, db := a.Digests(), b.Digests()
	if da.Program != a.Fingerprint() || da.Modules[a.Entry] != a.EntryModule().Fingerprint() {
		t.Fatal("Digests disagrees with Fingerprint")
	}
	cache := core.NewEvalCache()
	ma, err := core.EvaluateDigests(context.Background(), a, da.Modules, core.EvalOptions{K: 4, Cache: cache, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain, err := core.Evaluate(a, core.EvalOptions{K: 4, Workers: 1}); err != nil || *plain != *ma {
		t.Fatalf("handed digests changed the metrics: %+v vs %+v (%v)", ma, plain, err)
	}
	own, err := core.Evaluate(b, core.EvalOptions{K: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	swapped := maps.Clone(db.Modules)
	swapped[b.Entry] = da.Modules[a.Entry]
	rec := &core.CacheRecorder{}
	mb, err := core.EvaluateDigests(context.Background(), b, swapped, core.EvalOptions{K: 4, Cache: cache, Workers: 1, CacheStats: rec})
	if err != nil {
		t.Fatal(err)
	}
	if st := rec.Stats(); st.CommMisses != 0 || st.CPMisses != 0 || st.CommHits == 0 {
		t.Errorf("swapped digest missed the cache: %+v", st)
	}
	if mb.ZeroCommSteps != ma.ZeroCommSteps || mb.CommCycles != ma.CommCycles || mb.CriticalPath != ma.CriticalPath {
		t.Errorf("swapped evaluation %+v, want Grovers' lengths %+v", mb, ma)
	}
	if mb.TotalGates != own.TotalGates || own.ZeroCommSteps == ma.ZeroCommSteps {
		t.Errorf("QFT's own metrics %+v cannot tell the digests apart (swapped %+v)", own, mb)
	}

	delete(swapped, b.Entry)
	if _, err := core.EvaluateDigests(context.Background(), b, swapped, core.EvalOptions{K: 4}); err == nil || !strings.Contains(err.Error(), "no digest") {
		t.Errorf("missing leaf digest: %v", err)
	}
}
