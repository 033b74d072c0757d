package coarse_test

import (
	"math"
	"testing"

	"github.com/scaffold-go/multisimd/internal/coarse"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

// fixedDims returns a Dims source with one serial option per callee.
func fixedDims(lengths map[string]int64) func(string) (coarse.Dims, error) {
	return func(callee string) (coarse.Dims, error) {
		return coarse.Dims{Widths: []int{1}, Lengths: []int64{lengths[callee]}}, nil
	}
}

func TestSerialChainOfCalls(t *testing.T) {
	// Three dependent calls on the same register: length sums.
	p := ir.NewProgram("main")
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 2}})
	for i := 0; i < 3; i++ {
		m.Call("f", ir.Range{Start: 0, Len: 2})
	}
	p.Add(m)
	res, err := coarse.Schedule(m, coarse.Options{
		K: 4, Cost: coarse.ZeroComm, Dims: fixedDims(map[string]int64{"f": 10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 30 || res.Width != 1 {
		t.Errorf("length=%d width=%d", res.Length, res.Width)
	}
}

func TestIndependentCallsParallelize(t *testing.T) {
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 8}})
	for i := 0; i < 4; i++ {
		m.Call("f", ir.Range{Start: i * 2, Len: 2})
	}
	for _, k := range []int{1, 2, 4} {
		res, err := coarse.Schedule(m, coarse.Options{
			K: k, Cost: coarse.ZeroComm, Dims: fixedDims(map[string]int64{"f": 10}),
		})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(10 * (4 / k))
		if res.Length != want {
			t.Errorf("k=%d: length %d, want %d", k, res.Length, want)
		}
	}
}

func TestPipelinedChainsShareRegions(t *testing.T) {
	// Two staggered dependent chains A1->A2->A3, B1->B2->B3 on separate
	// registers: k=2 runs both concurrently at length 30, and critically
	// k=2 must NOT serialize to 60 (the rectangular-group failure mode).
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 4}})
	for i := 0; i < 3; i++ {
		m.Call("f", ir.Range{Start: 0, Len: 2})
		m.Call("f", ir.Range{Start: 2, Len: 2})
	}
	res, err := coarse.Schedule(m, coarse.Options{
		K: 2, Cost: coarse.ZeroComm, Dims: fixedDims(map[string]int64{"f": 10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 30 {
		t.Errorf("length %d, want 30", res.Length)
	}
	if res.Width != 2 {
		t.Errorf("width %d, want 2", res.Width)
	}
}

func TestFlexibleWidthChoice(t *testing.T) {
	// A callee that runs 10 cycles wide (4 regions) or 30 narrow
	// (1 region). Alone on k=4 it should pick wide; four independent
	// instances on k=4 should pick narrow (4x30 parallel = 30 beats
	// 4x10 serialized = 40).
	dims := func(string) (coarse.Dims, error) {
		return coarse.Dims{Widths: []int{1, 4}, Lengths: []int64{30, 10}}, nil
	}
	single := ir.NewModule("s", nil, []ir.Reg{{Name: "q", Size: 2}})
	single.Call("f", ir.Range{Start: 0, Len: 2})
	res, err := coarse.Schedule(single, coarse.Options{K: 4, Cost: coarse.ZeroComm, Dims: dims})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 10 {
		t.Errorf("single: length %d, want 10 (wide)", res.Length)
	}
	multi := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 8}})
	for i := 0; i < 4; i++ {
		multi.Call("f", ir.Range{Start: i * 2, Len: 2})
	}
	res, err = coarse.Schedule(multi, coarse.Options{K: 4, Cost: coarse.ZeroComm, Dims: dims})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 30 {
		t.Errorf("multi: length %d, want 30 (narrow, fully parallel)", res.Length)
	}
}

func TestGateAndCallCosts(t *testing.T) {
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.H, 0)
	m.Call("f", ir.Range{Start: 0, Len: 2})
	dims := fixedDims(map[string]int64{"f": 10})
	zero, err := coarse.Schedule(m, coarse.Options{K: 1, Cost: coarse.ZeroComm, Dims: dims})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Length != 11 {
		t.Errorf("zero-comm length %d, want 11", zero.Length)
	}
	wc, err := coarse.Schedule(m, coarse.Options{K: 1, Cost: coarse.WithComm, Dims: dims})
	if err != nil {
		t.Fatal(err)
	}
	// Gate 5 + call (10 + 4 flush) = 19.
	if wc.Length != 19 {
		t.Errorf("with-comm length %d, want 19", wc.Length)
	}
}

func TestCountMultiplier(t *testing.T) {
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.CallN("f", 1000, ir.Range{Start: 0, Len: 2})
	res, err := coarse.Schedule(m, coarse.Options{
		K: 4, Cost: coarse.ZeroComm, Dims: fixedDims(map[string]int64{"f": 7}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 7000 {
		t.Errorf("length %d, want 7000", res.Length)
	}
}

func TestMissingDims(t *testing.T) {
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 1}})
	m.Call("f", ir.Range{Start: 0, Len: 1})
	if _, err := coarse.Schedule(m, coarse.Options{K: 1, Cost: coarse.ZeroComm}); err == nil {
		t.Error("missing dims source not caught")
	}
}

func TestEmptyModule(t *testing.T) {
	m := ir.NewModule("main", nil, nil)
	res, err := coarse.Schedule(m, coarse.Options{K: 2, Cost: coarse.ZeroComm})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 0 || res.Width != 0 {
		t.Errorf("empty: %+v", res)
	}
}

func TestPlacementsRespectDependencies(t *testing.T) {
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 4}})
	m.Call("f", ir.Range{Start: 0, Len: 2}) // A
	m.Call("f", ir.Range{Start: 2, Len: 2}) // B independent of A
	m.Call("f", ir.Range{Start: 1, Len: 2}) // C depends on A and B
	res, err := coarse.Schedule(m, coarse.Options{
		K: 2, Cost: coarse.ZeroComm, Dims: fixedDims(map[string]int64{"f": 5}),
	})
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[int]coarse.Placement{}
	for _, pl := range res.Placements {
		byOp[pl.OpIndex] = pl
	}
	if byOp[2].Start < byOp[0].Start+byOp[0].Length || byOp[2].Start < byOp[1].Start+byOp[1].Length {
		t.Errorf("dependent op starts early: %+v", res.Placements)
	}
	if res.Length != 10 {
		t.Errorf("length %d, want 10", res.Length)
	}
}

func TestSerialSameDimsChainPicksFastWidth(t *testing.T) {
	// Regression: a serial chain of identical blackboxes must not be
	// mistaken for a parallel wave and forced narrow; each link should
	// use the width that minimizes its own length.
	dims := func(string) (coarse.Dims, error) {
		return coarse.Dims{Widths: []int{1, 2}, Lengths: []int64{382, 301}}, nil
	}
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 2}})
	for i := 0; i < 12; i++ {
		m.Call("f", ir.Range{Start: 0, Len: 2})
	}
	res, err := coarse.Schedule(m, coarse.Options{K: 4, Cost: coarse.ZeroComm, Dims: dims})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 12*301 {
		t.Errorf("length %d, want %d", res.Length, 12*301)
	}
}

func TestWaveOfIdenticalBoxesBalancesWidths(t *testing.T) {
	// 12 independent identical boxes on k=4: narrow (length 30, w=1)
	// packs 4 lanes x 3 waves = 90; wide (length 10, w=4) serializes
	// 12 x 10 = 120. The joint choice must pick narrow.
	dims := func(string) (coarse.Dims, error) {
		return coarse.Dims{Widths: []int{1, 4}, Lengths: []int64{30, 10}}, nil
	}
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 24}})
	for i := 0; i < 12; i++ {
		m.Call("f", ir.Range{Start: i * 2, Len: 2})
	}
	res, err := coarse.Schedule(m, coarse.Options{K: 4, Cost: coarse.ZeroComm, Dims: dims})
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != 90 {
		t.Errorf("length %d, want 90", res.Length)
	}
}

// TestSaturatedBoxesArePlaced: a box whose every length has saturated at
// math.MaxInt64 still takes a fitting width and finishes at
// math.MaxInt64, so the module's length reads saturated, never 0. Under
// WithComm the call overhead adds to the saturated lengths, which must
// not wrap either.
func TestSaturatedBoxesArePlaced(t *testing.T) {
	m := ir.NewModule("main", nil, []ir.Reg{{Name: "q", Size: 4}})
	m.Call("huge", ir.Range{Start: 0, Len: 2})
	m.Call("huge", ir.Range{Start: 2, Len: 2})
	m.Call("huge", ir.Range{Start: 0, Len: 2})
	dims := func(string) (coarse.Dims, error) {
		return coarse.Dims{Widths: []int{1, 2}, Lengths: []int64{math.MaxInt64, math.MaxInt64}}, nil
	}
	for _, cost := range []coarse.CostModel{coarse.ZeroComm, coarse.WithComm} {
		for _, k := range []int{1, 2, 4} {
			res, err := coarse.Schedule(m, coarse.Options{K: k, Cost: cost, Dims: dims})
			if err != nil {
				t.Fatal(err)
			}
			if res.Length != math.MaxInt64 {
				t.Errorf("cost %+v k=%d: length %d, want saturated", cost, k, res.Length)
			}
			for _, p := range res.Placements {
				if p.Width < 1 || p.Length != math.MaxInt64 {
					t.Errorf("cost %+v k=%d: op %d placed at width %d length %d", cost, k, p.OpIndex, p.Width, p.Length)
				}
			}
		}
		ls, err := coarse.Lengths(m, cost, dims, []int{1, 2, 4}, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range ls {
			if l != math.MaxInt64 {
				t.Errorf("cost %+v: Lengths[%d] = %d, want saturated", cost, i, l)
			}
		}
	}
	if w, l, ok := (coarse.Dims{Widths: []int{1, 2}, Lengths: []int64{math.MaxInt64, math.MaxInt64}}).Best(2); !ok || w != 1 || l != math.MaxInt64 {
		t.Errorf("Best of saturated dims = %d, %d, %v; want 1, MaxInt64, true", w, l, ok)
	}
}
