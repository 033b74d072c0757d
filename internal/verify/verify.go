// Package verify is the independent legality oracle for Multi-SIMD
// schedules (paper §3–§4). It re-checks, from first principles, every
// contract the schedulers and the communication analysis promise:
//
//  1. every operation of the module is scheduled exactly once;
//  2. dependencies execute in strictly earlier timesteps;
//  3. each SIMD region applies one gate type per step (schedule.KeyOf);
//  4. region counts stay within k and region qubit usage within d;
//  5. no qubit is touched by two regions (or two ops) in one step;
//  6. the move list produced by comm.Analyze is consistent — every
//     operand is resident in its region when its operation fires, moves
//     depart from where the qubit actually is, scratchpad capacity is
//     respected, each step's overhead is recounted from the moves (§4.4
//     masking or strict accounting, plus EPR waves) and the summary
//     counters match the boundary lists.
//
// The checks are deliberately written against the execution model
// rather than against any scheduler's implementation, so they serve as
// a differential oracle: schedule.Validate and this package fail
// independently if the toolflow drifts.
package verify

import (
	"fmt"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

// Error is a structured legality violation. Step, Region and Op locate
// the failure inside the schedule; fields that do not apply are -1.
type Error struct {
	Module string // module name
	Check  string // invariant identifier, e.g. "simd-homogeneity"
	Step   int    // timestep, -1 if not applicable
	Region int    // SIMD region, -1 if not applicable
	Op     int    // op index into the module body, -1 if not applicable
	Detail string // human-readable description
}

// Error implements the error interface with a fully located diagnostic.
func (e *Error) Error() string {
	s := fmt.Sprintf("verify: module %q: check %s", e.Module, e.Check)
	if e.Step >= 0 {
		s += fmt.Sprintf(" step %d", e.Step)
	}
	if e.Region >= 0 {
		s += fmt.Sprintf(" region %d", e.Region)
	}
	if e.Op >= 0 {
		s += fmt.Sprintf(" op %d", e.Op)
	}
	return s + ": " + e.Detail
}

func fail(s *schedule.Schedule, check string, step, region, op int, format string, args ...any) error {
	return &Error{
		Module: s.M.Name,
		Check:  check,
		Step:   step,
		Region: region,
		Op:     op,
		Detail: fmt.Sprintf(format, args...),
	}
}

// Schedule checks invariants 1–5 of a fine-grained schedule against its
// dependency graph. It is an independent reimplementation of the
// Multi-SIMD(k,d) contract, not a call into schedule.Validate.
func Schedule(s *schedule.Schedule, g *dag.Graph) error {
	n := len(s.M.Ops)
	if g.Len() != n {
		return fail(s, "graph-shape", -1, -1, -1,
			"dependency graph has %d nodes, module has %d ops", g.Len(), n)
	}
	if s.K < 1 {
		return fail(s, "machine-shape", -1, -1, -1, "k = %d, want >= 1", s.K)
	}

	stepOf := make([]int, n)
	for i := range stepOf {
		stepOf[i] = -1
	}

	for t := range s.Steps {
		// (4) The k-region bound holds by construction: a schedule
		// holds k regions per step (schedule.FromLists rejects more).
		// (5) every qubit touched at most once per step, across regions.
		qubitAt := map[int]int{} // slot -> region of first touch this step
		for r := 0; r < s.K; r++ {
			ops := s.Region(t, r)
			if len(ops) == 0 {
				continue
			}
			key := dag.KeyOf(s.M, ops[0])
			qubits := 0
			for _, op := range ops {
				if op < 0 || int(op) >= n {
					return fail(s, "op-range", t, r, int(op),
						"op index out of range [0,%d)", n)
				}
				// (1) exactly once.
				if prev := stepOf[op]; prev >= 0 {
					return fail(s, "op-once", t, r, int(op),
						"op already scheduled at step %d", prev)
				}
				stepOf[op] = t
				// (3) SIMD homogeneity.
				if k := dag.KeyOf(s.M, op); k != key {
					return fail(s, "simd-homogeneity", t, r, int(op),
						"region mixes %v and %v", key, k)
				}
				for _, slot := range s.M.Ops[op].Args {
					if slot < 0 || slot >= s.M.TotalSlots() {
						return fail(s, "qubit-range", t, r, int(op),
							"qubit slot %d out of range [0,%d)", slot, s.M.TotalSlots())
					}
					if r0, seen := qubitAt[slot]; seen {
						return fail(s, "qubit-exclusive", t, r, int(op),
							"qubit %s already touched in region %d this step",
							s.M.SlotName(slot), r0)
					}
					qubitAt[slot] = r
					qubits++
				}
			}
			// (4) d-capacity.
			if s.D > 0 && qubits > s.D {
				return fail(s, "d-capacity", t, r, -1,
					"region operates on %d qubits, d = %d", qubits, s.D)
			}
		}
	}

	// (1) completeness and (2) dependency order.
	for i := 0; i < n; i++ {
		if stepOf[i] < 0 {
			return fail(s, "op-once", -1, -1, i, "op never scheduled")
		}
		for _, p := range g.Preds(i) {
			if stepOf[p] >= stepOf[i] {
				return fail(s, "dependency-order", stepOf[i], -1, i,
					"scheduled at step %d, but dependency op %d runs at step %d",
					stepOf[i], p, stepOf[p])
			}
		}
	}
	return nil
}

// Moves checks invariant 6: the move list of a communication analysis is
// consistent with qubit locations over time. It replays res.Boundaries
// against the schedule, tracking each qubit's residence: every move must
// depart from the qubit's current location, local moves must connect a
// region to its own scratchpad, scratchpad occupancy must respect the
// configured capacity, every operand must be resident in its region when
// its operation fires, each step's overhead must equal the stall,
// strict boundary cost and EPR waves replayed from the moves, and the
// Result's summary counters must match the boundary lists. opts must be
// the options the analysis ran under.
func Moves(s *schedule.Schedule, res *comm.Result, opts comm.Options) error {
	if len(res.Boundaries) != len(s.Steps) || len(res.Overhead) != len(s.Steps) {
		return fail(s, "move-shape", -1, -1, -1,
			"%d boundaries / %d overheads for %d steps",
			len(res.Boundaries), len(res.Overhead), len(s.Steps))
	}

	loc := map[int]comm.Loc{} // zero value = global memory
	pending := map[int]int{}  // movement cycles since the qubit's last use
	lastUse := map[int]int{}  // step of the qubit's last use
	localOcc := make([]int, s.K)
	var globals, locals int64
	var peakLocal, peakEPR int

	for t := range s.Steps {
		boundaryEPR, firstLoads, overhead := 0, 0, 0
		for mi, mv := range res.Boundaries[t] {
			if mv.Slot < 0 || mv.Slot >= s.M.TotalSlots() {
				return fail(s, "move-slot", t, -1, -1,
					"boundary move %d references slot %d of %d", mi, mv.Slot, s.M.TotalSlots())
			}
			if err := checkLocRegion(s, t, mv.From); err != nil {
				return err
			}
			if err := checkLocRegion(s, t, mv.To); err != nil {
				return err
			}
			if cur := loc[mv.Slot]; mv.From != cur {
				return fail(s, "move-source", t, int(regionOf(mv.From)), -1,
					"qubit %s moves from %v but resides at %v",
					s.M.SlotName(mv.Slot), mv.From, cur)
			}
			if mv.From == mv.To {
				return fail(s, "move-noop", t, int(regionOf(mv.To)), -1,
					"qubit %s moves from %v to itself", s.M.SlotName(mv.Slot), mv.From)
			}
			cost := comm.LocalCycles
			switch mv.Kind {
			case comm.LocalMove:
				// Ballistic moves connect a region to its own scratchpad.
				if !localPair(mv.From, mv.To) {
					return fail(s, "move-kind", t, int(regionOf(mv.To)), -1,
						"local move %v -> %v does not connect a region to its scratchpad",
						mv.From, mv.To)
				}
				locals++
			case comm.GlobalMove:
				if localPair(mv.From, mv.To) {
					return fail(s, "move-kind", t, int(regionOf(mv.To)), -1,
						"teleport %v -> %v connects a region to its own scratchpad",
						mv.From, mv.To)
				}
				globals++
				boundaryEPR++
				if _, used := lastUse[mv.Slot]; !used {
					firstLoads++
				}
				cost = comm.TeleportCycles
			default:
				return fail(s, "move-kind", t, -1, -1, "unknown move kind %d", mv.Kind)
			}
			// Strict §4.4 accounting charges the boundary its costliest
			// move; masking charges only what outlasts the idle window.
			pending[mv.Slot] += cost
			if opts.NoOverlap {
				overhead = max(overhead, cost)
			}
			if mv.From.Kind == comm.InLocal {
				localOcc[mv.From.Region]--
			}
			if mv.To.Kind == comm.InLocal {
				r := int(mv.To.Region)
				localOcc[r]++
				if localOcc[r] > peakLocal {
					peakLocal = localOcc[r]
				}
				if opts.LocalCapacity == 0 {
					return fail(s, "local-capacity", t, r, -1,
						"qubit %s parked in a scratchpad, but local memory is disabled",
						s.M.SlotName(mv.Slot))
				}
				if opts.LocalCapacity > 0 && localOcc[r] > opts.LocalCapacity {
					return fail(s, "local-capacity", t, r, -1,
						"scratchpad holds %d qubits, capacity %d", localOcc[r], opts.LocalCapacity)
				}
			}
			loc[mv.Slot] = mv.To
		}
		if boundaryEPR > peakEPR {
			peakEPR = boundaryEPR
		}
		// Residency: after the boundary's moves, every operand of step t
		// must sit in the region operating on it. Under teleportation
		// masking its journey since the previous use stalls the step
		// only beyond that idle window; first uses ride pre-distribution.
		for r := 0; r < s.K; r++ {
			for _, op := range s.Region(t, r) {
				for _, slot := range s.M.Ops[op].Args {
					want := comm.Loc{Kind: comm.InRegion, Region: int32(r)}
					if got := loc[slot]; got != want {
						return fail(s, "residency", t, r, int(op),
							"operand %s resides at %v, not in its region",
							s.M.SlotName(slot), got)
					}
					if prev, used := lastUse[slot]; used && !opts.NoOverlap {
						overhead = max(overhead, pending[slot]-(t-prev-1))
					}
					pending[slot] = 0
					lastUse[slot] = t
				}
			}
		}
		// A finite EPR channel serializes the boundary's runtime
		// teleports into waves; under masking, first-use loads are
		// pre-distributed and do not compete for it.
		runtime := boundaryEPR
		if !opts.NoOverlap {
			runtime -= firstLoads
		}
		if bw := opts.EPRBandwidth; bw > 0 && runtime > bw {
			overhead += ((runtime+bw-1)/bw - 1) * comm.TeleportCycles
		}
		if res.Overhead[t] != overhead {
			return fail(s, "overhead", t, -1, -1,
				"result charges %d cycles, replay charges %d", res.Overhead[t], overhead)
		}
	}

	// Summary counters must match the boundary lists they summarize.
	if res.GlobalMoves != globals || res.LocalMoves != locals {
		return fail(s, "move-counters", -1, -1, -1,
			"result counts %d global / %d local moves, boundaries hold %d / %d",
			res.GlobalMoves, res.LocalMoves, globals, locals)
	}
	if res.EPRPairs != globals {
		return fail(s, "epr-counters", -1, -1, -1,
			"result counts %d EPR pairs for %d teleports", res.EPRPairs, globals)
	}
	if res.PeakEPRBandwidth != peakEPR {
		return fail(s, "epr-counters", -1, -1, -1,
			"result reports peak EPR bandwidth %d, boundaries peak at %d",
			res.PeakEPRBandwidth, peakEPR)
	}
	// The analysis reserves scratchpad slots from eviction-planning time,
	// so its reported peak may exceed the replayed arrival-time peak but
	// never undercount it, and must itself respect the capacity.
	if res.MaxLocalOccupancy < peakLocal {
		return fail(s, "local-capacity", -1, -1, -1,
			"result reports peak scratchpad occupancy %d, replay reaches %d",
			res.MaxLocalOccupancy, peakLocal)
	}
	if opts.LocalCapacity > 0 && res.MaxLocalOccupancy > opts.LocalCapacity {
		return fail(s, "local-capacity", -1, -1, -1,
			"result reports peak scratchpad occupancy %d, capacity %d",
			res.MaxLocalOccupancy, opts.LocalCapacity)
	}
	var cycles int64
	for _, o := range res.Overhead {
		cycles += int64(o)
	}
	cycles += int64(len(s.Steps))
	if res.Cycles != cycles {
		return fail(s, "cycle-accounting", -1, -1, -1,
			"result reports %d cycles, steps + overheads sum to %d", res.Cycles, cycles)
	}
	return nil
}

// Full runs the complete legality check: the Multi-SIMD schedule
// contract (invariants 1–5) followed by move-list consistency (6).
// res may be nil to skip the communication checks.
func Full(s *schedule.Schedule, g *dag.Graph, res *comm.Result, opts comm.Options) error {
	if err := Schedule(s, g); err != nil {
		return err
	}
	if res == nil {
		return nil
	}
	return Moves(s, res, opts)
}

// checkLocRegion rejects locations naming a region outside [0, k).
func checkLocRegion(s *schedule.Schedule, t int, l comm.Loc) error {
	switch l.Kind {
	case comm.InGlobal:
		return nil
	case comm.InRegion, comm.InLocal:
		if l.Region < 0 || int(l.Region) >= s.K {
			return fail(s, "move-region", t, int(l.Region), -1,
				"location %v names a region outside [0,%d)", l, s.K)
		}
		return nil
	}
	return fail(s, "move-region", t, -1, -1, "unknown location kind %d", l.Kind)
}

// localPair reports whether from/to connect a region to its own
// scratchpad (in either direction) — the only legal ballistic move.
func localPair(from, to comm.Loc) bool {
	return (from.Kind == comm.InRegion && to.Kind == comm.InLocal ||
		from.Kind == comm.InLocal && to.Kind == comm.InRegion) &&
		from.Region == to.Region
}

// regionOf extracts a region index for diagnostics; -1 for global.
func regionOf(l comm.Loc) int32 {
	if l.Kind == comm.InGlobal {
		return -1
	}
	return l.Region
}
