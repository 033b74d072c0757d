package flatten_test

// The differential oracle for marking: refFlatten is the eager pass
// that marking replaced — it copies every callee body into each module
// under FTh — kept here as the reference. Every observable of a marked
// program must equal that of the same program flattened eagerly.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/flatten"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/resource"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// refFlatten flattens p in place by copying: bottom-up, each reachable
// module under fth has every call replaced by its callee's body,
// Count times, with the callee's locals added as fresh locals.
func refFlatten(p *ir.Program, fth int64) (*flatten.Stats, error) {
	est, err := resource.New(p)
	if err != nil {
		return nil, err
	}
	stats := &flatten.Stats{Threshold: fth}
	for _, name := range est.Reachable() {
		m := p.Modules[name]
		gates, err := est.Gates(name)
		if err != nil {
			return nil, err
		}
		if gates > fth {
			stats.KeptModular++
			continue
		}
		if m.IsLeaf() {
			stats.AlreadyLeaf++
			continue
		}
		if err := refInline(p, m); err != nil {
			return nil, err
		}
		stats.Flattened++
		for i := range m.Ops {
			if m.Ops[i].Kind == ir.GateOp {
				stats.InlinedCallOps++
			}
		}
	}
	return stats, p.Validate()
}

func refInline(p *ir.Program, m *ir.Module) error {
	var out []ir.Op
	for i := range m.Ops {
		op := &m.Ops[i]
		if op.Kind != ir.CallOp {
			out = append(out, *op)
			continue
		}
		callee := p.Modules[op.Callee]
		slotMap := make([]int, 0, callee.TotalSlots())
		for _, r := range op.CallArgs {
			for s := r.Start; s < r.Start+r.Len; s++ {
				slotMap = append(slotMap, s)
			}
		}
		for _, l := range callee.Locals {
			r := m.AddLocal(fmt.Sprintf("%s.%d.%s", callee.Name, i, l.Name), l.Size)
			for s := r.Start; s < r.Start+r.Len; s++ {
				slotMap = append(slotMap, s)
			}
		}
		for r := int64(0); r < op.EffCount(); r++ {
			for j := range callee.Ops {
				c := callee.Ops[j]
				if c.Kind != ir.GateOp {
					return fmt.Errorf("ref: callee %s of %s is not a leaf", callee.Name, m.Name)
				}
				c.Args = make([]int, len(c.Args))
				for k, s := range callee.Ops[j].Args {
					c.Args[k] = slotMap[s]
				}
				out = append(out, c)
			}
		}
	}
	m.Ops = out
	return nil
}

// materializeLimit bounds each materialized leaf and qasmLimit each QASM
// stream the oracle compares: both sides must agree on the error past
// them.
const (
	materializeLimit = 1 << 18
	qasmLimit        = 1 << 16
)

// checkAgainstRef flattens a copy of the modular program p both ways
// at fth and compares every observable.
func checkAgainstRef(t *testing.T, label string, p *ir.Program, fth int64) {
	t.Helper()
	got, want := p.Clone(), p.Clone()
	gotStats, err := flatten.Program(got, flatten.Options{Threshold: fth})
	if err != nil {
		t.Fatalf("%s: flatten: %v", label, err)
	}
	wantStats, err := refFlatten(want, fth)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if *gotStats != *wantStats {
		t.Errorf("%s: stats %+v, reference %+v", label, *gotStats, *wantStats)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("%s: marked program invalid: %v", label, err)
	}
	if g, w := got.Digests(), want.Digests(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: digests differ", label)
	}
	checkResources(t, label, got, want)
	for _, name := range want.Order {
		checkModule(t, label+" "+name, got.Modules[name], want.Modules[name])
	}
	checkQASM(t, label, got, want)
}

func checkResources(t *testing.T, label string, got, want *ir.Program) {
	t.Helper()
	ge, err := resource.New(got)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	we, err := resource.New(want)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if g, w := ge.Reachable(), we.Reachable(); !slices.Equal(g, w) {
		t.Errorf("%s: reachable %v, reference %v", label, g, w)
	}
	for _, q := range []func(*resource.Estimator) (any, error){
		func(e *resource.Estimator) (any, error) { return e.TotalGates() },
		func(e *resource.Estimator) (any, error) { return e.MinQubits() },
		func(e *resource.Estimator) (any, error) { return e.ModuleGates() },
	} {
		g, gerr := q(ge)
		w, werr := q(we)
		if !reflect.DeepEqual(g, w) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("%s: resources %v (%v), reference %v (%v)", label, g, gerr, w, werr)
		}
	}
}

func checkModule(t *testing.T, label string, got, want *ir.Module) {
	t.Helper()
	if got.IsLeaf() != want.IsLeaf() || got.MaterializedSize() != want.MaterializedSize() ||
		got.IsMaterialized() != want.IsMaterialized() || got.Fingerprint() != want.Fingerprint() {
		t.Errorf("%s: leaf %v/%v, size %d/%d, materialized %v/%v or fingerprint differs", label,
			got.IsLeaf(), want.IsLeaf(), got.MaterializedSize(), want.MaterializedSize(),
			got.IsMaterialized(), want.IsMaterialized())
	}
	if !reflect.DeepEqual(got.Locals, want.Locals) || got.TotalSlots() != want.TotalSlots() {
		t.Errorf("%s: locals %v, reference %v", label, got.Locals, want.Locals)
	}
	for s := 0; s < want.TotalSlots(); s++ {
		if got.SlotName(s) != want.SlotName(s) {
			t.Errorf("%s: slot %d named %q, reference %q", label, s, got.SlotName(s), want.SlotName(s))
			break
		}
	}
	if !want.IsLeaf() {
		return
	}
	gm, gerr := got.Materialize(materializeLimit)
	wm, werr := want.Materialize(materializeLimit)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Errorf("%s: materialize: %v, reference %v", label, gerr, werr)
		return
	}
	if werr != nil {
		return
	}
	if gm.Name != wm.Name || !reflect.DeepEqual(gm.Params, wm.Params) ||
		!reflect.DeepEqual(gm.Locals, wm.Locals) || gm.TotalSlots() != wm.TotalSlots() ||
		len(gm.Ops) != len(wm.Ops) {
		t.Errorf("%s: materialized %s/%d slots/%d ops, reference %s/%d/%d", label,
			gm.Name, gm.TotalSlots(), len(gm.Ops), wm.Name, wm.TotalSlots(), len(wm.Ops))
		return
	}
	for i := range wm.Ops {
		g, w := &gm.Ops[i], &wm.Ops[i]
		if g.Kind != w.Kind || g.Gate != w.Gate || math.Float64bits(g.Angle) != math.Float64bits(w.Angle) ||
			g.Count != w.Count || g.Callee != w.Callee ||
			!slices.Equal(g.Args, w.Args) || !slices.Equal(g.CallArgs, w.CallArgs) {
			t.Errorf("%s: materialized op %d is %+v, reference %+v", label, i, *g, *w)
			return
		}
	}
}

func checkQASM(t *testing.T, label string, got, want *ir.Program) {
	t.Helper()
	var gb, wb bytes.Buffer
	gn, gerr := core.EmitQASM(&gb, got, qasmLimit)
	wn, werr := core.EmitQASM(&wb, want, qasmLimit)
	if gn != wn || fmt.Sprint(gerr) != fmt.Sprint(werr) || !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Errorf("%s: QASM %d instructions (%v), reference %d (%v); streams equal: %v",
			label, gn, gerr, wn, werr, bytes.Equal(gb.Bytes(), wb.Bytes()))
	}
}

// modular builds b's program without flattening.
func modular(t *testing.T, b bench.Benchmark) *ir.Program {
	t.Helper()
	opts := b.Pipeline
	opts.SkipFlatten = true
	p, err := core.Build(b.Source, opts)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	return p
}

// TestMarkMatchesEagerGated runs the oracle on every gated benchmark at
// the service's FTh, the paper's, and thresholds that keep call
// structure above the leaves.
func TestMarkMatchesEagerGated(t *testing.T) {
	for _, b := range bench.Gated() {
		p := modular(t, b)
		for _, fth := range []int64{20, 300, 2000, flatten.DefaultThreshold} {
			checkAgainstRef(t, fmt.Sprintf("%s fth=%d", b.Name, fth), p, fth)
		}
	}
}

// TestMarkMatchesEagerPaperScale runs the oracle on the paper-parameter
// benchmarks at their own FTh, where the reference copy stays small: at
// most 200k materialized leaf ops (that excludes SHA-1 and Shor's).
func TestMarkMatchesEagerPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation is slow; run without -short")
	}
	ran := 0
	for _, b := range bench.All() {
		p := modular(t, b)
		fth := b.Pipeline.FTh
		if fth == 0 {
			fth = flatten.DefaultThreshold
		}
		marked := p.Clone()
		if _, err := flatten.Program(marked, flatten.Options{Threshold: fth}); err != nil {
			t.Fatal(err)
		}
		var size int64
		for _, m := range marked.Modules {
			if m.IsLeaf() {
				size += m.MaterializedSize()
			}
		}
		if size > 200_000 {
			t.Logf("%s: %d leaf ops, skipped", b.Name, size)
			continue
		}
		ran++
		checkAgainstRef(t, b.Name, p, fth)
	}
	if ran < 4 {
		t.Errorf("only %d paper-scale programs compared", ran)
	}
}

// TestMarkMatchesEagerSoak runs the oracle on the soak generator's
// profiles, ten seeds each, at thresholds between the smallest and the
// largest module (capped so the reference copy stays small).
func TestMarkMatchesEagerSoak(t *testing.T) {
	profiles := []verify.ProgramGenOptions{
		{Loops: true},
		{Loops: true, Wide: true, Measure: true},
		{Depth: 3, Loops: true, Wide: true},
	}
	for pi, gen := range profiles {
		for seed := int64(1); seed <= 10; seed++ {
			p := verify.RandomProgram(rand.New(rand.NewSource(seed)), gen)
			est, err := resource.New(p)
			if err != nil {
				t.Fatal(err)
			}
			gates, err := est.ModuleGates()
			if err != nil {
				t.Fatal(err)
			}
			fths := []int64{}
			for _, g := range gates {
				if g <= 100_000 {
					fths = append(fths, g)
				}
			}
			slices.Sort(fths)
			fths = slices.Compact(fths)
			for _, fth := range []int64{fths[0], fths[len(fths)/2], fths[len(fths)-1]} {
				checkAgainstRef(t, fmt.Sprintf("profile %d seed %d fth=%d", pi, seed, fth), p, fth)
			}
		}
	}
}
