package comm

// This file is the dense-state implementation of the movement analysis.
// Qubit slots and timesteps are small dense integers, so all per-qubit
// and per-step bookkeeping lives in slot- and step-indexed slices backed
// by a reusable arena (Analyzer) instead of hash maps: the inner loop
// does O(1) array indexing. A warmed Analyzer's Analyze allocates only
// the returned Result. Analyze records every move: it is the path of
// verification and reports, and the reference that movement.go's Price
// is pinned to. The map-based
// original is preserved as the differential oracle in reference_test.go;
// TestDenseAnalyzeMatchesReference pins Analyze to it field-for-field
// across the random corpus.

import (
	"fmt"
	"sync"

	"github.com/scaffold-go/multisimd/internal/schedule"
)

type use struct {
	step   int32
	region int32
}

// evictNode is one planned eviction, linked into its boundary's
// chronological list (next = arena index, -1 ends the list).
type evictNode struct {
	slot int32
	dest Loc
	kind MoveKind
	next int32
}

// leaveNode is one scratchpad departure (region id), linked like
// evictNode.
type leaveNode struct {
	region int32
	next   int32
}

// Analyzer carries the reusable dense state of the movement analysis.
// The zero value is ready to use; buffers grow to the largest schedule
// analyzed and are reused afterwards, so steady-state Analyze calls
// allocate only the Result. An Analyzer must not be used concurrently;
// the package-level Analyze draws from a sync.Pool.
type Analyzer struct {
	// Slot-indexed state.
	loc     []Loc   // current residence; zero value = global memory
	cursor  []int32 // index of the slot's next use in its use list
	pending []int32 // in-flight movement cost since the previous op
	lastUse []int32 // timestep of the previous op, -1 = never used

	// Flattened per-slot use lists: uses[useOff[s]:useOff[s+1]].
	useOff []int32
	useFil []int32
	uses   []use

	// Step-indexed state.
	bStart    []int32 // move-arena offset where each boundary begins
	evictHead []int32 // per-boundary eviction list heads/tails
	evictTail []int32
	leaveHead []int32 // per-step scratchpad-departure list heads/tails
	leaveTail []int32

	// Region-indexed state.
	localOcc   []int32 // current scratchpad occupancy
	nextActive []int32 // flattened k x (nSteps+1) activity index

	// Arenas.
	evictions []evictNode
	leaves    []leaveNode
	moves     []Move // all moves, in boundary order
}

// NewAnalyzer returns an empty Analyzer. Equivalent to &Analyzer{};
// provided for symmetry with the rest of the toolflow's constructors.
func NewAnalyzer() *Analyzer { return &Analyzer{} }

var analyzerPool = sync.Pool{New: func() any { return NewAnalyzer() }}

// Analyze derives moves and communication cost for a fine-grained
// schedule using a pooled Analyzer.
func Analyze(s *schedule.Schedule, opts Options) (*Result, error) {
	a := analyzerPool.Get().(*Analyzer)
	res, err := a.Analyze(s, opts)
	analyzerPool.Put(a)
	return res, err
}

// grown returns a length-n slice reusing buf's storage when it fits.
// Contents are unspecified; callers reset what they read.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// reset sizes every buffer for a (slots, steps, regions) problem and
// clears the state the analysis reads before writing.
func (a *Analyzer) reset(slots, nSteps, k int) {
	a.loc = grown(a.loc, slots)
	a.cursor = grown(a.cursor, slots)
	a.pending = grown(a.pending, slots)
	a.lastUse = grown(a.lastUse, slots)
	clear(a.loc)
	clear(a.cursor)
	clear(a.pending)
	for i := range a.lastUse {
		a.lastUse[i] = -1
	}

	a.useOff = grown(a.useOff, slots+1)
	a.useFil = grown(a.useFil, slots)
	clear(a.useOff)
	clear(a.useFil)

	a.bStart = grown(a.bStart, nSteps+1)
	a.evictHead = grown(a.evictHead, nSteps+1)
	a.evictTail = grown(a.evictTail, nSteps+1)
	a.leaveHead = grown(a.leaveHead, nSteps+1)
	a.leaveTail = grown(a.leaveTail, nSteps+1)
	for i := range a.evictHead {
		a.evictHead[i] = -1
		a.leaveHead[i] = -1
	}

	a.localOcc = grown(a.localOcc, k)
	a.nextActive = grown(a.nextActive, k*(nSteps+1))
	clear(a.localOcc)

	a.evictions = a.evictions[:0]
	a.leaves = a.leaves[:0]
	a.moves = a.moves[:0]
}

// buildUses flattens the per-qubit (step, region) touch lists,
// preserving the step-order scan (and its duplicate-use error) of the
// map-based original.
func (a *Analyzer) buildUses(s *schedule.Schedule) error {
	for _, op := range s.Ops() {
		for _, slot := range s.M.Ops[op].Args {
			a.useOff[slot+1]++
		}
	}
	for i := 1; i < len(a.useOff); i++ {
		a.useOff[i] += a.useOff[i-1]
	}
	total := int(a.useOff[len(a.useOff)-1])
	a.uses = grown(a.uses, total)
	for t := range s.Steps {
		for r := 0; r < s.K; r++ {
			for _, op := range s.Region(t, r) {
				for _, slot := range s.M.Ops[op].Args {
					off, n := a.useOff[slot], a.useFil[slot]
					if n > 0 && a.uses[off+n-1].step == int32(t) {
						return fmt.Errorf("comm: qubit %d used twice in step %d", slot, t)
					}
					a.uses[off+n] = use{step: int32(t), region: int32(r)}
					a.useFil[slot] = n + 1
				}
			}
		}
	}
	return nil
}

// buildActivity fills the flattened activity index: for region r,
// nextActive[r*(nSteps+1)+t] is the earliest active step >= t (nSteps
// when none).
func (a *Analyzer) buildActivity(s *schedule.Schedule) {
	nSteps := len(s.Steps)
	stride := nSteps + 1
	for r := 0; r < s.K; r++ {
		a.nextActive[r*stride+nSteps] = int32(nSteps)
	}
	for t := nSteps - 1; t >= 0; t-- {
		b := s.Bounds(t)
		for r := 0; r < s.K; r++ {
			i := r*stride + t
			if b[r] < b[r+1] {
				a.nextActive[i] = int32(t)
			} else {
				a.nextActive[i] = a.nextActive[i+1]
			}
		}
	}
}

// planEvict links an eviction of slot to dest into boundary b's list.
func (a *Analyzer) planEvict(b int, slot int32, dest Loc, kind MoveKind) {
	idx := int32(len(a.evictions))
	a.evictions = append(a.evictions, evictNode{slot: slot, dest: dest, kind: kind, next: -1})
	if a.evictHead[b] < 0 {
		a.evictHead[b] = idx
	} else {
		a.evictions[a.evictTail[b]].next = idx
	}
	a.evictTail[b] = idx
}

// planLeave links a scratchpad departure from region r into step v's
// list.
func (a *Analyzer) planLeave(v int, r int32) {
	idx := int32(len(a.leaves))
	a.leaves = append(a.leaves, leaveNode{region: r, next: -1})
	if a.leaveHead[v] < 0 {
		a.leaveHead[v] = idx
	} else {
		a.leaves[a.leaveTail[v]].next = idx
	}
	a.leaveTail[v] = idx
}

// Analyze derives moves and communication cost for a fine-grained
// schedule. The returned Result is independent of the Analyzer and
// remains valid across further calls.
func (a *Analyzer) Analyze(s *schedule.Schedule, opts Options) (*Result, error) {
	nSteps := len(s.Steps)
	rec := &Result{Boundaries: make([][]Move, nSteps), Overhead: make([]int, nSteps)}
	if nSteps == 0 {
		return rec, nil
	}
	a.reset(s.M.TotalSlots(), nSteps, s.K)
	if err := a.buildUses(s); err != nil {
		return nil, err
	}
	a.buildActivity(s)
	stride := nSteps + 1

	// Every move charged while step t is processed targets boundary t,
	// so that boundary's overhead, teleport and first-use load tallies
	// are final once step t's in-moves are done, and recorded moves stay
	// in boundary order, delimited by bStart.
	var over, teleports, firstLoads int
	addMove := func(m Move) {
		a.moves = append(a.moves, m)
		cost := int32(LocalCycles)
		if m.Kind == GlobalMove {
			rec.GlobalMoves++
			teleports++
			cost = TeleportCycles
		} else {
			rec.LocalMoves++
		}
		a.pending[m.Slot] += cost
		if opts.NoOverlap && over < int(cost) {
			over = int(cost)
		}
	}

	for t := 0; t < nSteps; t++ {
		a.bStart[t] = int32(len(a.moves))
		over, teleports, firstLoads = 0, 0, 0
		// Scratchpad departures free capacity first.
		for i := a.leaveHead[t]; i >= 0; i = a.leaves[i].next {
			a.localOcc[a.leaves[i].region]--
		}
		// Planned evictions at this boundary.
		for i := a.evictHead[t]; i >= 0; i = a.evictions[i].next {
			ev := &a.evictions[i]
			addMove(Move{Slot: int(ev.slot), Kind: ev.kind, From: a.loc[ev.slot], To: ev.dest})
			a.loc[ev.slot] = ev.dest
		}
		// In-moves: operands of step t reach their regions.
		for r := 0; r < s.K; r++ {
			for _, op := range s.Region(t, r) {
				for _, slot := range s.M.Ops[op].Args {
					l := a.loc[slot]
					dst := Loc{Kind: InRegion, Region: int32(r)}
					switch {
					case l.Kind == InRegion && l.Region == int32(r):
						// Already in place.
					case l.Kind == InLocal && l.Region == int32(r):
						addMove(Move{Slot: slot, Kind: LocalMove, From: l, To: dst})
					default:
						addMove(Move{Slot: slot, Kind: GlobalMove, From: l, To: dst})
						if a.lastUse[slot] < 0 {
							firstLoads++
						}
					}
					a.loc[slot] = dst
					// Teleportation masking: the journey since the
					// previous use stalls this step only beyond the idle
					// window. First uses ride the pre-distribution.
					if !opts.NoOverlap {
						if prev := a.lastUse[slot]; prev >= 0 {
							window := int32(t) - prev - 1
							if stall := int(a.pending[slot] - window); stall > over {
								over = stall
							}
						}
					}
					a.pending[slot] = 0
					a.lastUse[slot] = int32(t)
				}
			}
		}
		// EPR bandwidth: record the peak teleport burst, and under a
		// finite channel capacity serialize an overflowing boundary into
		// waves. Pre-distributed first-use loads never stall the runtime
		// under the masked model; only genuine mid-circuit teleports
		// compete for the channel. NoOverlap charges everything, per §4.4.
		if teleports > rec.PeakEPRBandwidth {
			rec.PeakEPRBandwidth = teleports
		}
		runtime := teleports
		if !opts.NoOverlap {
			runtime -= firstLoads
		}
		if opts.EPRBandwidth > 0 && runtime > opts.EPRBandwidth {
			waves := (runtime + opts.EPRBandwidth - 1) / opts.EPRBandwidth
			over += (waves - 1) * TeleportCycles
		}
		rec.Cycles += int64(over)
		rec.Overhead[t] = over
		// Out-decisions for step t's operands.
		for r := 0; r < s.K; r++ {
			for _, op := range s.Region(t, r) {
				for _, slot := range s.M.Ops[op].Args {
					a.cursor[slot]++
					i := a.cursor[slot]
					if i >= a.useOff[slot+1]-a.useOff[slot] {
						// Final use: the region reclaims the qubit as
						// ancilla/EPR stock (§4.4); no move charged.
						a.loc[slot] = Loc{Kind: InGlobal}
						continue
					}
					next := a.uses[a.useOff[slot]+i]
					v := int(next.step)
					// First step strictly after t at which region r is
					// active again (possibly v itself).
					av := nSteps
					if t+1 < nSteps {
						av = int(a.nextActive[r*stride+t+1])
					}
					if next.region == int32(r) {
						if av >= v {
							continue // rests in place until its next op
						}
						// Evicted before reuse: prefer the scratchpad.
						if opts.LocalCapacity != 0 &&
							(opts.LocalCapacity < 0 || int(a.localOcc[r]) < opts.LocalCapacity) {
							a.planEvict(av, int32(slot), Loc{Kind: InLocal, Region: int32(r)}, LocalMove)
							a.localOcc[r]++
							if int(a.localOcc[r]) > rec.MaxLocalOccupancy {
								rec.MaxLocalOccupancy = int(a.localOcc[r])
							}
							a.planLeave(v, int32(r))
							continue
						}
						a.planEvict(av, int32(slot), Loc{Kind: InGlobal}, GlobalMove)
						continue
					}
					// Next use in another region: rest here while idle,
					// teleporting straight to the consumer; flush to
					// global memory if this region reactivates first.
					if av < v {
						a.planEvict(av, int32(slot), Loc{Kind: InGlobal}, GlobalMove)
					}
					// Otherwise stays; the in-move at v charges the
					// region-to-region teleport.
				}
			}
		}
	}
	rec.Cycles += int64(nSteps) // the stalls summed per step, plus a cycle per step
	rec.EPRPairs = rec.GlobalMoves
	// Detach the move list from the arena: one flat allocation, sliced
	// per boundary (nil where a boundary charged nothing, matching the
	// map-based original).
	a.bStart[nSteps] = int32(len(a.moves))
	flat := make([]Move, len(a.moves))
	copy(flat, a.moves)
	for t := 0; t < nSteps; t++ {
		if lo, hi := a.bStart[t], a.bStart[t+1]; lo < hi {
			rec.Boundaries[t] = flat[lo:hi:hi]
		}
	}
	return rec, nil
}
