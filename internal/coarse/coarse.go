// Package coarse implements the paper's hierarchical coarse-grained
// scheduler (Algorithm 3, §4.3).
//
// Leaf modules are scheduled by the fine-grained schedulers (rcp, lpfs)
// and characterized as blackboxes with flexible rectangular dimensions:
// for widths 1..k, the schedule length achieved at that width. The
// coarse scheduler walks each non-leaf module in criticality order and
// packs blackboxes onto the k SIMD regions: each op claims `width`
// regions for `length` timesteps starting no earlier than its data
// dependencies allow, and the width option is chosen per op to minimize
// its finish time under current congestion — the role of Algorithm 3's
// flexible-dimension combination search. Non-leaf modules are in turn
// characterized as blackboxes for their callers, bottom-up over the
// call graph.
//
// Compared to the paper's pseudocode, which grows rectangular parallel
// groups and serializes on overflow, this implementation tracks
// per-region availability directly; temporally staggered (pipelined)
// chains therefore pack without inflating group width, which the
// rectangular formulation over-counts. The flexible-width selection is
// the same mechanism, applied per placement.
package coarse

import (
	"fmt"
	"math"
	"sort"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/obs"
)

// Dims is a blackbox's flexible dimensions: Widths[i] and Lengths[i]
// pair a region budget with the schedule length achieved at that width.
type Dims struct {
	Widths  []int
	Lengths []int64
}

// Best returns the minimal length achievable within maxWidth regions and
// the width that achieves it. ok is false when no option fits.
func (d Dims) Best(maxWidth int) (width int, length int64, ok bool) {
	for i, w := range d.Widths {
		if w <= maxWidth && (!ok || d.Lengths[i] < length) {
			width, length, ok = w, d.Lengths[i], true
		}
	}
	return
}

// CostModel sets the coarse-level costs of primitive operations.
type CostModel struct {
	// GateCost is the cycles charged per coarse-level gate: 1 in the
	// parallelism-only model, 1 + 4 movement when accounting
	// communication (§4.3: "an operation execution cost of 1 and a
	// movement cost of 4").
	GateCost int64
	// CallOverhead is the fixed flush cost added to each module
	// invocation: 0 in the parallelism-only model, one teleportation
	// (4 cycles) when accounting communication (§3.2).
	CallOverhead int64
}

// ZeroComm is the communication-free cost model (Fig. 6).
var ZeroComm = CostModel{GateCost: 1, CallOverhead: 0}

// WithComm charges naive movement on stray coarse gates and one teleport
// per call (Figs. 7–9).
var WithComm = CostModel{GateCost: 5, CallOverhead: 4}

// Options configures a coarse scheduling run.
type Options struct {
	K    int
	Cost CostModel
	Dims func(callee string) (Dims, error)

	// Trace, when non-nil, records a span per coarse scheduling run
	// (category "coarse", named after the module) carrying the chosen
	// length and placement count. Nil is free.
	Trace *obs.Tracer
}

// Placement records where one coarse op landed.
type Placement struct {
	OpIndex int
	Start   int64 // first timestep, 0-based
	Width   int
	Length  int64
}

// Result is a coarse schedule of one non-leaf module.
type Result struct {
	Length     int64
	Width      int
	Placements []Placement
}

// Schedule runs the coarse scheduler over module m at one machine
// size: the plan Lengths builds, placed once at opts.K, keeping every
// placement and the peak width.
func Schedule(m *ir.Module, opts Options) (*Result, error) {
	res := &Result{}
	if _, err := schedule(m, opts.Cost, opts.Dims, []int{opts.K}, opts.Trace, 0, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Lengths returns the coarse schedule length of m under cost at each
// machine size in widths — Schedule(m, Options{K: widths[i], ...}).Length
// for every i, without building the plan per width. Dependencies,
// blackboxes and the priority order do not depend on k, so they are
// built once and only the placer runs per width. tr, when non-nil,
// records one "coarse" span per width on track tid (k, ops and length;
// no peak width, which only Schedule computes).
func Lengths(m *ir.Module, cost CostModel, dims func(callee string) (Dims, error), widths []int, tr *obs.Tracer, tid int64) ([]int64, error) {
	return schedule(m, cost, dims, widths, tr, tid, nil)
}

// schedule is the one body behind Schedule and Lengths. It checks the
// arguments, builds m's plan once and places it at each width in
// widths, returning the lengths. Each width gets one "coarse" span on
// track tid; the first also covers building the plan, so the spans
// account for all coarse work. res, when non-nil (Schedule, one
// width), receives the length, every placement and the peak width.
func schedule(m *ir.Module, cost CostModel, dims func(string) (Dims, error), widths []int, tr *obs.Tracer, tid int64, res *Result) ([]int64, error) {
	for _, k := range widths {
		if k < 1 {
			return nil, fmt.Errorf("coarse: k must be >= 1, got %d", k)
		}
	}
	if cost.GateCost <= 0 {
		return nil, fmt.Errorf("coarse: gate cost must be positive")
	}
	n := len(m.Ops)
	var placements []Placement
	if res != nil && n > 0 {
		placements = make([]Placement, n)
	}
	var pl *plan
	out := make([]int64, len(widths))
	for i, k := range widths {
		sp := tr.SpanTID("coarse", m.Name, tid)
		sp.SetInt("k", int64(k))
		sp.SetInt("ops", int64(n))
		var err error
		if n > 0 && pl == nil {
			pl, err = newPlan(m, cost, dims)
		}
		if pl != nil {
			out[i], err = pl.run(k, placements)
		}
		sp.SetInt("length", out[i])
		if res != nil && err == nil {
			res.Length, res.Placements = out[i], placements
			res.Width = peakWidth(placements, k)
			sp.SetInt("width", int64(res.Width))
		}
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// plan is the k-independent part of coarse scheduling one module under
// one cost model: each op's blackbox, the dependency graph and the
// priority order. run places it on a k-region machine.
type plan struct {
	name  string
	boxes []Dims
	// predStart and preds hold the dependency graph in CSR (compressed
	// sparse row) form: op i's distinct predecessors — the last toucher
	// of each slot it reads — are preds[predStart[i]:predStart[i+1]].
	predStart []int32
	preds     []int32
	order     []int32 // topological, highest priority ready op first

	// Per-run scratch, reused across widths.
	finish []int64
	inWave []bool
	wave   []int32
	placer placer
}

func newPlan(m *ir.Module, cost CostModel, dims func(string) (Dims, error)) (*plan, error) {
	boxes, err := buildBoxes(m, cost, dims)
	if err != nil {
		return nil, err
	}
	n := len(m.Ops)
	pl := &plan{
		name:   m.Name,
		boxes:  boxes,
		finish: make([]int64, n),
		inWave: make([]bool, n),
		wave:   make([]int32, 0, n),
	}
	pl.predStart, pl.preds = buildPreds(m)
	pl.order = pl.priorityOrder()
	return pl, nil
}

func (pl *plan) predsOf(i int32) []int32 { return pl.preds[pl.predStart[i]:pl.predStart[i+1]] }

// readyAt is the earliest start of op i: the latest finish among its
// predecessors. The order is topological and wave growth stops at an
// in-wave predecessor, so every predecessor read here is already
// placed in the current run.
func (pl *plan) readyAt(i int32) int64 {
	var te int64
	for _, p := range pl.predsOf(i) {
		if pl.finish[p] > te {
			te = pl.finish[p]
		}
	}
	return te
}

// run places the plan on k regions and returns the schedule length.
// When placements is non-nil (length len(boxes)), each op's placement
// is recorded at its index.
func (pl *plan) run(k int, placements []Placement) (int64, error) {
	pl.placer.reset(k)
	var length int64
	place := func(i int32, forceWidth int) error {
		p, ok := pl.placer.place(pl.boxes[i], pl.readyAt(i), forceWidth)
		if !ok {
			return noFitError(int(i), pl.name, k, forceWidth)
		}
		f := ir.SatAdd(p.Start, p.Length)
		pl.finish[i] = f
		if placements != nil {
			p.OpIndex = int(i)
			placements[i] = p
		}
		if f > length {
			length = f
		}
		return nil
	}

	// Walk the priority order in waves: a maximal consecutive run of
	// identically-dimensioned, mutually independent ops that become
	// ready at the same time is a parallel group in Algorithm 3's
	// sense, and its members' widths are chosen jointly rather than
	// greedily. Membership requires no predecessor inside the wave
	// (everything before the wave is already placed, because the order
	// is topological, so earliest start times are then exact).
	order := pl.order
	for idx := 0; idx < len(order); {
		i := order[idx]
		te := pl.readyAt(i)
		wave := append(pl.wave[:0], i)
		pl.inWave[i] = true
	grow:
		for _, cand := range order[idx+1:] {
			if !sameDims(pl.boxes[cand], pl.boxes[i]) {
				break
			}
			for _, p := range pl.predsOf(cand) {
				if pl.inWave[p] {
					break grow
				}
			}
			if pl.readyAt(cand) != te {
				break
			}
			wave = append(wave, cand)
			pl.inWave[cand] = true
		}
		pl.wave = wave
		forced := 0
		if len(wave) > 1 {
			forced = waveWidth(pl.boxes[i], len(wave), freeRegionsAt(pl.placer.freeAt, te))
		}
		for _, w := range wave {
			pl.inWave[w] = false
		}
		for _, w := range wave {
			if err := place(w, forced); err != nil {
				return 0, err
			}
		}
		idx += len(wave)
	}
	return length, nil
}

// placer tracks region availability and places one blackbox at a time.
// The pre-refactor implementation copy-sorted freeAt once to rank start
// times and a second (region, free) slice to claim regions — two
// O(k log k) sorts and two allocations per placement. The placer instead
// runs a single partial selection over a reusable min-heap of region
// ids keyed by (freeAt, id): one heapify plus at most wMax pops, no
// allocation. Ties in free time are claimed lowest-region-first; the
// original's tie order was unspecified, but any tied choice yields the
// same freeAt multiset, so results are bit-identical (placements do not
// name regions).
type placer struct {
	k      int
	freeAt []int64 // freeAt[r] is when region r next becomes idle
	heap   []int32 // scratch: region ids, min-heap by (freeAt, id)
	sel    []int32 // scratch: regions popped in ascending order
}

// reset empties the placer for a k-region machine, reusing its buffers
// when they are large enough.
func (p *placer) reset(k int) {
	p.k = k
	if cap(p.freeAt) < k {
		p.freeAt = make([]int64, k)
		p.heap = make([]int32, k)
		p.sel = make([]int32, 0, k)
	}
	p.freeAt = p.freeAt[:k]
	clear(p.freeAt)
	p.heap = p.heap[:k]
}

func (p *placer) less(a, b int32) bool {
	if p.freeAt[a] != p.freeAt[b] {
		return p.freeAt[a] < p.freeAt[b]
	}
	return a < b
}

func (p *placer) siftDown(h []int32, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && p.less(h[l], h[smallest]) {
			smallest = l
		}
		if r < len(h) && p.less(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// selectEarliest fills p.sel with the n regions that free earliest, in
// ascending (freeAt, id) order: heapify O(k) plus n pops.
func (p *placer) selectEarliest(n int) []int32 {
	h := p.heap[:p.k]
	for i := range h {
		h[i] = int32(i)
	}
	for i := p.k/2 - 1; i >= 0; i-- {
		p.siftDown(h, i)
	}
	sel := p.sel[:0]
	for len(sel) < n {
		sel = append(sel, h[0])
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		p.siftDown(h, 0)
	}
	p.sel = sel
	return sel
}

// place chooses the width option of d minimizing finish time (ties
// prefer narrower boxes, leaving room for siblings), claims the regions
// that free earliest, and returns the placement. Finishes saturate, so
// a box whose every length has saturated still takes a fitting width
// and finishes at math.MaxInt64. ok is false when no option fits k (or
// the forced width).
func (p *placer) place(d Dims, te int64, forceWidth int) (Placement, bool) {
	wMax := 0
	for _, w := range d.Widths {
		if w > p.k || (forceWidth > 0 && w != forceWidth) {
			continue
		}
		if w > wMax {
			wMax = w
		}
	}
	if wMax == 0 {
		return Placement{}, false
	}
	sel := p.selectEarliest(wMax)
	var bestFinish, bestStart, bestL int64
	bestW := 0
	for j, w := range d.Widths {
		if w > p.k || (forceWidth > 0 && w != forceWidth) {
			continue
		}
		// Starting a w-wide box requires the w earliest-free regions.
		start := p.freeAt[sel[w-1]]
		if te > start {
			start = te
		}
		f := ir.SatAdd(start, d.Lengths[j])
		if bestW == 0 || f < bestFinish || (f == bestFinish && w < bestW) {
			bestFinish, bestStart, bestW, bestL = f, start, w, d.Lengths[j]
		}
	}
	for claimed := 0; claimed < bestW; claimed++ {
		p.freeAt[sel[claimed]] = bestFinish
	}
	return Placement{Start: bestStart, Width: bestW, Length: bestL}, true
}

// noFitError renders the no-dimension-fits diagnostic. A width forced
// by wave grouping names itself: a k=8 machine rejecting a 4-wide box
// because the wave search pinned width 2 would otherwise misdirect
// debugging toward the machine size.
func noFitError(op int, module string, k, forceWidth int) error {
	if forceWidth > 0 {
		return fmt.Errorf("coarse: op %d of %s has no dimension fitting k=%d with width %d forced by wave grouping",
			op, module, k, forceWidth)
	}
	return fmt.Errorf("coarse: op %d of %s has no dimension fitting k=%d", op, module, k)
}

// sameDims reports whether two blackboxes offer identical options.
func sameDims(a, b Dims) bool {
	if len(a.Widths) != len(b.Widths) {
		return false
	}
	for i := range a.Widths {
		if a.Widths[i] != b.Widths[i] || a.Lengths[i] != b.Lengths[i] {
			return false
		}
	}
	return true
}

// freeRegionsAt counts regions idle at time t.
func freeRegionsAt(freeAt []int64, t int64) int {
	n := 0
	for _, f := range freeAt {
		if f <= t {
			n++
		}
	}
	return n
}

// waveWidth is Algorithm 3's combination search specialized to a wave of
// count identical blackboxes on kFree idle regions: pick the width
// minimizing the wave makespan ceil(count/floor(kFree/w))·L(w). Returns
// 0 (no constraint) when no option fits.
func waveWidth(d Dims, count, kFree int) int {
	if kFree < 1 {
		return 0
	}
	best := 0
	bestSpan := int64(math.MaxInt64)
	for j, w := range d.Widths {
		lanes := kFree / w
		if lanes < 1 {
			continue
		}
		waves := int64((count + lanes - 1) / lanes)
		span := ir.SatMul(waves, d.Lengths[j])
		if span < bestSpan || (span == bestSpan && w < best) {
			bestSpan = span
			best = w
		}
	}
	return best
}

// peakWidth sweeps placements to find the maximal number of
// simultaneously claimed regions.
func peakWidth(ps []Placement, k int) int {
	type ev struct {
		t int64
		d int
	}
	events := make([]ev, 0, 2*len(ps))
	for _, p := range ps {
		if p.Length == 0 {
			continue
		}
		events = append(events, ev{t: p.Start, d: p.Width}, ev{t: ir.SatAdd(p.Start, p.Length), d: -p.Width})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return events[a].d < events[b].d // process releases first
	})
	cur, peak := 0, 0
	for _, e := range events {
		cur += e.d
		if cur > peak {
			peak = cur
		}
	}
	if peak > k {
		peak = k
	}
	return peak
}

// unitWidth is the single width option of a coarse-level gate, shared
// read-only by every gate box.
var unitWidth = []int{1}

// buildBoxes computes the flexible dimensions of each op in the module:
// gates are 1-wide boxes of GateCost·count cycles; calls expand their
// callee dims by the repetition count plus the per-invocation overhead.
// Boxes only read their Widths, so they share the callee's slice (or
// unitWidth); all lengths share one allocation.
func buildBoxes(m *ir.Module, cost CostModel, dims func(string) (Dims, error)) ([]Dims, error) {
	boxes := make([]Dims, len(m.Ops))
	total := 0
	for i := range m.Ops {
		op := &m.Ops[i]
		switch op.Kind {
		case ir.GateOp:
			boxes[i].Widths = unitWidth
		case ir.CallOp:
			if dims == nil {
				return nil, fmt.Errorf("coarse: module %s calls %s but no dims source provided", m.Name, op.Callee)
			}
			d, err := dims(op.Callee)
			if err != nil {
				return nil, err
			}
			if len(d.Widths) == 0 {
				return nil, fmt.Errorf("coarse: empty dims for callee %s", op.Callee)
			}
			boxes[i] = d // callee lengths, rescaled below
		}
		total += len(boxes[i].Widths)
	}
	lengths := make([]int64, total)
	for i := range m.Ops {
		op := &m.Ops[i]
		b := &boxes[i]
		w := len(b.Widths)
		ls := lengths[:w:w]
		lengths = lengths[w:]
		if op.Kind == ir.GateOp {
			ls[0] = ir.SatMul(cost.GateCost, op.EffCount())
		} else {
			for j := range ls {
				ls[j] = ir.SatMul(ir.SatAdd(b.Lengths[j], cost.CallOverhead), op.EffCount())
			}
		}
		b.Lengths = ls
	}
	return boxes, nil
}

// buildPreds returns the dependency graph in CSR form: op i's distinct
// predecessors (the last toucher of each slot it touches) are
// preds[start[i]:start[i+1]], in first-touch order.
func buildPreds(m *ir.Module) (start, preds []int32) {
	n := len(m.Ops)
	start = make([]int32, n+1)
	last := make([]int32, m.TotalSlots())
	for s := range last {
		last[s] = -1
	}
	// seen[p] == i+1 marks p as already recorded for op i.
	seen := make([]int32, n)
	for i := range m.Ops {
		op := &m.Ops[i]
		touch := func(slot int) {
			if p := last[slot]; p >= 0 && seen[p] != int32(i+1) {
				seen[p] = int32(i + 1)
				preds = append(preds, p)
			}
		}
		for _, s := range op.Args {
			touch(s)
		}
		for _, r := range op.CallArgs {
			for s := r.Start; s < r.Start+r.Len; s++ {
				touch(s)
			}
		}
		for _, s := range op.Args {
			last[s] = int32(i)
		}
		for _, r := range op.CallArgs {
			for s := r.Start; s < r.Start+r.Len; s++ {
				last[s] = int32(i)
			}
		}
		start[i+1] = int32(len(preds))
	}
	return start, preds
}

// priorityOrder emits ops in a dependency-respecting order that always
// picks the most critical ready op next: greatest height in the coarse
// DAG weighted by minimal box length, ties to the lower index.
func (pl *plan) priorityOrder() []int32 {
	n := len(pl.boxes)
	// Heights fold backward over predecessor lists: every successor of
	// p has a larger index, so p's height is final when the sweep
	// reaches it. Successor lists (CSR) feed the ready-count release.
	height := make([]int64, n)
	succStart := make([]int32, n+1)
	for i := n - 1; i >= 0; i-- {
		_, l, _ := pl.boxes[i].Best(math.MaxInt32)
		height[i] = ir.SatAdd(height[i], l)
		for _, p := range pl.predsOf(int32(i)) {
			height[p] = max(height[p], height[i])
			succStart[p+1]++
		}
	}
	for i := 0; i < n; i++ {
		succStart[i+1] += succStart[i]
	}
	succs := make([]int32, len(pl.preds))
	fill := append([]int32(nil), succStart[:n]...)
	pend := make([]int32, n)
	for i := 0; i < n; i++ {
		ps := pl.predsOf(int32(i))
		pend[i] = int32(len(ps))
		for _, p := range ps {
			succs[fill[p]] = int32(i)
			fill[p]++
		}
	}

	h := readyHeap{height: height}
	for i := 0; i < n; i++ {
		if pend[i] == 0 {
			h.push(int32(i))
		}
	}
	out := make([]int32, 0, n)
	for len(h.data) > 0 {
		i := h.pop()
		out = append(out, i)
		for _, s := range succs[succStart[i]:succStart[i+1]] {
			pend[s]--
			if pend[s] == 0 {
				h.push(s)
			}
		}
	}
	return out
}

// readyHeap is a min-heap of ready ops by priority: greater height
// first, lower index on ties — a total order, so pop order does not
// depend on push order.
type readyHeap struct {
	height []int64
	data   []int32
}

func (h *readyHeap) less(a, b int) bool {
	x, y := h.data[a], h.data[b]
	if h.height[x] != h.height[y] {
		return h.height[x] > h.height[y]
	}
	return x < y
}

func (h *readyHeap) push(x int32) {
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

func (h *readyHeap) pop() int32 {
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
