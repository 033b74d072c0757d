package coarse

// referenceSchedule is the pre-refactor coarse scheduler, preserved as
// the differential oracle. It keeps the original per-op box
// allocations, map-based dependency sets, sort-then-repair priority order and per-placement copy-sorts of
// freeAt and a (region, free) slice, and rebuilds everything per call;
// Schedule and Lengths instead build one CSR plan and run a heap
// placer over it. The corpus test pins them bit-identical.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

func referenceSchedule(m *ir.Module, opts Options) (*Result, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("coarse: k must be >= 1, got %d", opts.K)
	}
	if opts.Cost.GateCost <= 0 {
		return nil, fmt.Errorf("coarse: gate cost must be positive")
	}
	n := len(m.Ops)
	res := &Result{}
	if n == 0 {
		return res, nil
	}
	boxes, err := referenceBoxes(m, opts)
	if err != nil {
		return nil, err
	}
	preds := buildDeps(m)
	order := priorityOrder(boxes, preds)

	freeAt := make([]int64, opts.K)
	finish := make([]int64, n)
	res.Placements = make([]Placement, n)
	readyAt := func(i int) int64 {
		var te int64
		for p := range preds[i] {
			if finish[p] > te {
				te = finish[p]
			}
		}
		return te
	}
	place := func(i int, te int64, forceWidth int) error {
		bestFinish := int64(math.MaxInt64)
		bestStart := int64(0)
		bestW, bestL := 0, int64(0)
		d := boxes[i]
		sorted := append([]int64(nil), freeAt...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		for j, w := range d.Widths {
			if w > opts.K || (forceWidth > 0 && w != forceWidth) {
				continue
			}
			start := sorted[w-1]
			if te > start {
				start = te
			}
			f := start + d.Lengths[j]
			if f < bestFinish || (f == bestFinish && w < bestW) {
				bestFinish, bestStart, bestW, bestL = f, start, w, d.Lengths[j]
			}
		}
		if bestW == 0 {
			return fmt.Errorf("coarse: op %d of %s has no dimension fitting k=%d", i, m.Name, opts.K)
		}
		type rt struct {
			r    int
			free int64
		}
		regs := make([]rt, opts.K)
		for r := range freeAt {
			regs[r] = rt{r: r, free: freeAt[r]}
		}
		sort.Slice(regs, func(a, b int) bool { return regs[a].free < regs[b].free })
		for claimed := 0; claimed < bestW; claimed++ {
			freeAt[regs[claimed].r] = bestFinish
		}
		finish[i] = bestFinish
		res.Placements[i] = Placement{OpIndex: i, Start: bestStart, Width: bestW, Length: bestL}
		if bestFinish > res.Length {
			res.Length = bestFinish
		}
		return nil
	}

	for idx := 0; idx < len(order); {
		i := order[idx]
		te := readyAt(i)
		wave := []int{i}
		inWave := map[int]bool{i: true}
	grow:
		for j := idx + 1; j < len(order); j++ {
			cand := order[j]
			if !sameDims(boxes[cand], boxes[i]) {
				break
			}
			for p := range preds[cand] {
				if inWave[p] {
					break grow
				}
			}
			if readyAt(cand) != te {
				break
			}
			wave = append(wave, cand)
			inWave[cand] = true
		}
		forced := 0
		if len(wave) > 1 {
			forced = waveWidth(boxes[i], len(wave), freeRegionsAt(freeAt, te))
		}
		for _, w := range wave {
			if err := place(w, readyAt(w), forced); err != nil {
				return nil, err
			}
		}
		idx += len(wave)
	}
	res.Width = peakWidth(res.Placements, opts.K)
	return res, nil
}

// referenceBoxes computes the flexible dimensions of each op in the
// module: gates are 1-wide boxes of GateCost·count cycles; calls expand
// their callee dims by the repetition count plus the per-invocation
// overhead.
func referenceBoxes(m *ir.Module, opts Options) ([]Dims, error) {
	boxes := make([]Dims, len(m.Ops))
	for i := range m.Ops {
		op := &m.Ops[i]
		switch op.Kind {
		case ir.GateOp:
			boxes[i] = Dims{Widths: []int{1}, Lengths: []int64{ir.SatMul(opts.Cost.GateCost, op.EffCount())}}
		case ir.CallOp:
			if opts.Dims == nil {
				return nil, fmt.Errorf("coarse: module %s calls %s but no dims source provided", m.Name, op.Callee)
			}
			d, err := opts.Dims(op.Callee)
			if err != nil {
				return nil, err
			}
			if len(d.Widths) == 0 {
				return nil, fmt.Errorf("coarse: empty dims for callee %s", op.Callee)
			}
			expanded := Dims{Widths: append([]int(nil), d.Widths...), Lengths: make([]int64, len(d.Lengths))}
			for j, l := range d.Lengths {
				expanded.Lengths[j] = ir.SatMul(l+opts.Cost.CallOverhead, op.EffCount())
			}
			boxes[i] = expanded
		}
	}
	return boxes, nil
}

// buildDeps returns, per op, the set of ops it depends on (last toucher
// of each shared slot).
func buildDeps(m *ir.Module) []map[int]bool {
	preds := make([]map[int]bool, len(m.Ops))
	last := make([]int, m.TotalSlots())
	for s := range last {
		last[s] = -1
	}
	touch := func(i, slot int) {
		if p := last[slot]; p >= 0 {
			if preds[i] == nil {
				preds[i] = map[int]bool{}
			}
			preds[i][p] = true
		}
	}
	for i := range m.Ops {
		op := &m.Ops[i]
		for _, s := range op.Args {
			touch(i, s)
		}
		for _, r := range op.CallArgs {
			for s := r.Start; s < r.Start+r.Len; s++ {
				touch(i, s)
			}
		}
		for _, s := range op.Args {
			last[s] = i
		}
		for _, r := range op.CallArgs {
			for s := r.Start; s < r.Start+r.Len; s++ {
				last[s] = i
			}
		}
	}
	return preds
}

// priorityOrder sorts ops by criticality: descending height in the
// coarse DAG weighted by minimal box length, repaired to a
// dependency-respecting order that always picks the highest-priority
// ready op.
func priorityOrder(boxes []Dims, preds []map[int]bool) []int {
	n := len(boxes)
	succs := make([][]int, n)
	for i, ps := range preds {
		for p := range ps {
			succs[p] = append(succs[p], i)
		}
	}
	height := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		var h int64
		for _, s := range succs[i] {
			if height[s] > h {
				h = height[s]
			}
		}
		_, l, _ := boxes[i].Best(math.MaxInt32)
		height[i] = h + l
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if height[ia] != height[ib] {
			return height[ia] > height[ib]
		}
		return ia < ib
	})
	return topoByPriority(order, preds, succs)
}

// topoByPriority emits ops in dependency-respecting order, always
// picking the highest-priority ready op next.
func topoByPriority(priority []int, preds []map[int]bool, succs [][]int) []int {
	n := len(priority)
	rank := make([]int, n)
	for r, op := range priority {
		rank[op] = r
	}
	pend := make([]int, n)
	for i, ps := range preds {
		pend[i] = len(ps)
	}
	heap := &rankHeap{rank: rank}
	for i := 0; i < n; i++ {
		if pend[i] == 0 {
			heap.push(i)
		}
	}
	out := make([]int, 0, n)
	for heap.len() > 0 {
		i := heap.pop()
		out = append(out, i)
		for _, s := range succs[i] {
			pend[s]--
			if pend[s] == 0 {
				heap.push(s)
			}
		}
	}
	return out
}

type rankHeap struct {
	rank []int
	data []int
}

func (h *rankHeap) len() int { return len(h.data) }

func (h *rankHeap) less(a, b int) bool { return h.rank[h.data[a]] < h.rank[h.data[b]] }

func (h *rankHeap) push(x int) {
	h.data = append(h.data, x)
	i := len(h.data) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.data[i], h.data[parent] = h.data[parent], h.data[i]
		i = parent
	}
}

func (h *rankHeap) pop() int {
	top := h.data[0]
	last := len(h.data) - 1
	h.data[0] = h.data[last]
	h.data = h.data[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.data) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.data) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.data[i], h.data[smallest] = h.data[smallest], h.data[i]
		i = smallest
	}
	return top
}

// randomCoarseModule builds a seeded non-leaf: gates and calls to a
// small callee set over overlapping ranges, so waves, pipelined chains
// and congested regions all occur.
func randomCoarseModule(rng *rand.Rand, nOps int) (*ir.Module, map[string]Dims) {
	m := ir.NewModule("rand", nil, []ir.Reg{{Name: "q", Size: 24}})
	dims := map[string]Dims{
		"a": {Widths: []int{1}, Lengths: []int64{int64(1 + rng.Intn(30))}},
		"b": {Widths: []int{1, 2}, Lengths: []int64{int64(20 + rng.Intn(40)), int64(10 + rng.Intn(10))}},
		"c": {Widths: []int{1, 2, 4}, Lengths: []int64{90, 50, int64(20 + rng.Intn(15))}},
	}
	names := []string{"a", "b", "c"}
	for i := 0; i < nOps; i++ {
		if rng.Intn(4) == 0 {
			m.Gate(qasm.H, rng.Intn(24))
			continue
		}
		callee := names[rng.Intn(len(names))]
		ln := 2 + rng.Intn(3)
		start := rng.Intn(24 - ln)
		if rng.Intn(3) == 0 {
			m.CallN(callee, int64(1+rng.Intn(5)), ir.Range{Start: start, Len: ln})
		} else {
			m.Call(callee, ir.Range{Start: start, Len: ln})
		}
	}
	return m, dims
}

// referenceLengths is the oracle for Lengths: one referenceSchedule
// per width, failing on the first width that fails.
func referenceLengths(m *ir.Module, cost CostModel, dims func(string) (Dims, error), ks []int) ([]int64, error) {
	out := make([]int64, len(ks))
	for i, k := range ks {
		res, err := referenceSchedule(m, Options{K: k, Cost: cost, Dims: dims})
		if err != nil {
			return nil, err
		}
		out[i] = res.Length
	}
	return out, nil
}

// lengthWidthSets are the machine-size lists Lengths is checked over.
// The unordered set makes the plan reuse a placer sized for a wider
// machine, which must start empty.
var lengthWidthSets = [][]int{{1, 2, 3, 4}, {1, 2, 3, 4, 5, 6, 7, 8, 16}, {8, 3, 16, 1, 2}}

// TestHeapPlacementMatchesReference pins the plan-based scheduler to
// the pre-refactor implementation: identical Results (length, width,
// every placement) from Schedule, and identical per-width lengths from
// Lengths, across a seeded corpus of random call-heavy modules, machine
// sizes and both cost models. Every corpus module schedules at every
// width; failures are covered by TestLengthsNoFitMatchesReference.
func TestHeapPlacementMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, dims := randomCoarseModule(rng, 40+rng.Intn(80))
		src := func(callee string) (Dims, error) { return dims[callee], nil }
		for _, k := range []int{1, 2, 3, 4, 8} {
			for _, cost := range []CostModel{ZeroComm, WithComm} {
				opts := Options{K: k, Cost: cost, Dims: src}
				want, err := referenceSchedule(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Schedule(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d k=%d cost=%+v: heap placement diverges\n got: %+v\nwant: %+v",
						seed, k, cost, got, want)
				}
			}
		}
		for _, cost := range []CostModel{ZeroComm, WithComm} {
			for _, ks := range lengthWidthSets {
				want, err := referenceLengths(m, cost, src, ks)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Lengths(m, cost, src, ks, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d ks=%v cost=%+v: Lengths %v, reference %v", seed, ks, cost, got, want)
				}
			}
		}
	}
}

// TestLengthsNoFitMatchesReference covers the failure path: corpus
// modules that also call a callee with no 1-wide option, so no
// dimension fits k=1. Schedule and Lengths must fail exactly as the
// reference does wherever k=1 is asked for, and match it bit for bit
// everywhere else.
func TestLengthsNoFitMatchesReference(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, dims := randomCoarseModule(rng, 40+rng.Intn(80))
		dims["wide"] = Dims{Widths: []int{2, 4}, Lengths: []int64{60, 35}}
		m.Call("wide", ir.Range{Start: rng.Intn(20), Len: 4})
		src := func(callee string) (Dims, error) { return dims[callee], nil }
		for _, cost := range []CostModel{ZeroComm, WithComm} {
			for _, k := range []int{1, 2, 4} {
				opts := Options{K: k, Cost: cost, Dims: src}
				want, werr := referenceSchedule(m, opts)
				got, err := Schedule(m, opts)
				if (k == 1) != (werr != nil) {
					t.Fatalf("seed %d k=%d: reference error %v", seed, k, werr)
				}
				if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d k=%d cost=%+v: Schedule (%+v, %v), reference (%+v, %v)",
						seed, k, cost, got, err, want, werr)
				}
			}
			for _, ks := range append(lengthWidthSets, []int{2, 3, 4, 8}) {
				want, werr := referenceLengths(m, cost, src, ks)
				got, err := Lengths(m, cost, src, ks, nil, 0)
				if slices.Contains(ks, 1) != (werr != nil) {
					t.Fatalf("seed %d ks=%v: reference error %v", seed, ks, werr)
				}
				if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d ks=%v cost=%+v: Lengths (%v, %v), reference (%v, %v)",
						seed, ks, cost, got, err, want, werr)
				}
			}
		}
	}
}

// TestNoFitDiagnostics covers both failure modes of the placement
// error: an oversized box with no constraint, and a miss caused by a
// width forced by wave grouping — the latter must name the forced width
// instead of blaming k.
func TestNoFitDiagnostics(t *testing.T) {
	// Unforced: every width exceeds k. End-to-end through Schedule.
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 4}})
	m.Call("wide", ir.Range{Start: 0, Len: 2})
	dims := func(string) (Dims, error) {
		return Dims{Widths: []int{4, 8}, Lengths: []int64{10, 6}}, nil
	}
	_, err := Schedule(m, Options{K: 2, Cost: ZeroComm, Dims: dims})
	if err == nil {
		t.Fatal("expected no-fit error")
	}
	want := "coarse: op 0 of m has no dimension fitting k=2"
	if err.Error() != want {
		t.Errorf("unforced diagnostic = %q, want %q", err, want)
	}

	// Forced: the same box fits k, but a wave-grouping constraint pins a
	// width the box does not offer. The scheduler only forces widths
	// drawn from the box's own options, so this arm is exercised at the
	// placement kernel directly.
	var pl placer
	pl.reset(4)
	if _, ok := pl.place(Dims{Widths: []int{4}, Lengths: []int64{10}}, 0, 2); ok {
		t.Fatal("expected forced-width miss")
	}
	err = noFitError(3, "m", 4, 2)
	wantForced := "coarse: op 3 of m has no dimension fitting k=4 with width 2 forced by wave grouping"
	if err.Error() != wantForced {
		t.Errorf("forced diagnostic = %q, want %q", err, wantForced)
	}
}

// TestPlacerSteadyStateAllocs guards the placement kernel: placing
// through a warmed placer allocates nothing.
func TestPlacerSteadyStateAllocs(t *testing.T) {
	var pl placer
	pl.reset(8)
	d := Dims{Widths: []int{1, 2, 4}, Lengths: []int64{40, 24, 16}}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := pl.place(d, 0, 0); !ok {
			t.Fatal("placement failed")
		}
	})
	if allocs != 0 {
		t.Errorf("place allocates %.0f times per call, want 0", allocs)
	}
}
