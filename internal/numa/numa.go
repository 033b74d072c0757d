// Package numa models the distributed global memory the paper defers to
// future work (§2.3: "To minimize EPR bandwidth requirements, future
// work will investigate distributed global memory and compiler
// algorithms for mapping to such a non-uniform memory architecture").
//
// The single global memory splits into B banks, each adjacent to a
// contiguous band of SIMD regions. Teleportation remains
// distance-insensitive in latency, but a pair sourced from a remote bank
// ties up the longer inter-bank channel: the model charges each far
// global move an extra stall (default 2 cycles) at its boundary.
//
// Two qubit-to-bank mapping policies are provided: RoundRobin (the
// oblivious baseline) and AffinityMoves, the compiler algorithm the
// paper anticipates — each qubit homes to the bank that serves most of
// its teleports. The Fig. 10-style experiment in cmd/qbench
// (-experiment numa) compares them.
package numa

import (
	"fmt"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

// DefaultFarPenalty is the extra stall charged per far-bank teleport.
const DefaultFarPenalty = 2

// Config describes the banked global memory.
type Config struct {
	// Banks is the number of memory banks (>= 1).
	Banks int
	// FarPenalty is the extra cycles charged when a teleport's EPR pair
	// comes from a non-adjacent bank; nil defaults to DefaultFarPenalty.
	// A pointer keeps an explicit zero representable: &0 models banks
	// whose inter-bank channel is as fast as the local one, which the
	// old int field silently promoted to the default.
	FarPenalty *int
}

func (c Config) farPenalty() int {
	if c.FarPenalty == nil {
		return DefaultFarPenalty
	}
	return *c.FarPenalty
}

// Validate rejects ill-formed configurations.
func (c Config) Validate() error {
	if c.Banks < 1 {
		return fmt.Errorf("numa: banks must be >= 1, got %d", c.Banks)
	}
	if c.FarPenalty != nil && *c.FarPenalty < 0 {
		return fmt.Errorf("numa: far penalty must be >= 0, got %d", *c.FarPenalty)
	}
	return nil
}

// BankOf maps a SIMD region to its adjacent bank: regions split into
// contiguous bands of k/banks regions each.
func BankOf(region int32, k, banks int) int {
	if region < 0 || k <= 0 {
		return 0
	}
	b := int(region) * banks / k
	if b >= banks {
		b = banks - 1
	}
	return b
}

// Assignment maps each qubit slot to its home bank.
type Assignment []int

// RoundRobin assigns qubits to banks obliviously by slot index.
func RoundRobin(slots, banks int) Assignment {
	a := make(Assignment, slots)
	for s := range a {
		a[s] = s % banks
	}
	return a
}

// Result summarizes a NUMA analysis.
type Result struct {
	// NearMoves and FarMoves partition the schedule's teleports by
	// whether their EPR pair came from the adjacent bank.
	NearMoves int64
	FarMoves  int64
	// ExtraCycles is the total far-bank stall added.
	ExtraCycles int64
	// Cycles is the NUMA-adjusted runtime: the uniform-memory cycles
	// plus ExtraCycles.
	Cycles int64
	// PerBankLoad counts teleports served by each bank.
	PerBankLoad []int64
}

// FarFraction returns the share of teleports crossing banks.
func (r *Result) FarFraction() float64 {
	total := r.NearMoves + r.FarMoves
	if total == 0 {
		return 0
	}
	return float64(r.FarMoves) / float64(total)
}

// Analyze charges each global move against the banked memory: a
// teleport whose qubit homes in a bank not adjacent to the involved
// region pays the far penalty. Local scratchpad moves are unaffected.
func Analyze(s *schedule.Schedule, res *comm.Result, assign Assignment, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(assign) < s.M.TotalSlots() {
		return nil, fmt.Errorf("numa: assignment covers %d slots of %d", len(assign), s.M.TotalSlots())
	}
	out := &Result{PerBankLoad: make([]int64, cfg.Banks)}
	penalty := int64(cfg.farPenalty())
	for b := range res.Boundaries {
		for _, mv := range res.Boundaries[b] {
			if mv.Kind != comm.GlobalMove {
				continue
			}
			region := int32(-1)
			switch {
			case mv.To.Kind == comm.InRegion:
				region = mv.To.Region
			case mv.From.Kind == comm.InRegion:
				region = mv.From.Region
			}
			home := assign[mv.Slot]
			if home < 0 || home >= cfg.Banks {
				return nil, fmt.Errorf("numa: slot %d assigned to bank %d of %d", mv.Slot, home, cfg.Banks)
			}
			out.PerBankLoad[home]++
			if region >= 0 && BankOf(region, s.K, cfg.Banks) != home {
				out.FarMoves++
				out.ExtraCycles += penalty
			} else {
				out.NearMoves++
			}
		}
	}
	out.Cycles = res.Cycles + out.ExtraCycles
	return out, nil
}

// AffinityMoves assigns each qubit to the bank that serves most of its
// teleports in the analyzed schedule — per-qubit optimal, since each
// global move is charged independently: no fixed assignment can have
// fewer far moves.
func AffinityMoves(s *schedule.Schedule, res *comm.Result, banks int) Assignment {
	slots := s.M.TotalSlots()
	counts := make([][]int, slots)
	for i := range counts {
		counts[i] = make([]int, banks)
	}
	for b := range res.Boundaries {
		for _, mv := range res.Boundaries[b] {
			if mv.Kind != comm.GlobalMove {
				continue
			}
			region := int32(-1)
			switch {
			case mv.To.Kind == comm.InRegion:
				region = mv.To.Region
			case mv.From.Kind == comm.InRegion:
				region = mv.From.Region
			}
			if region >= 0 {
				counts[mv.Slot][BankOf(region, s.K, banks)]++
			}
		}
	}
	a := make(Assignment, slots)
	for slot := range a {
		best, bestN := slot%banks, 0
		for bk, n := range counts[slot] {
			if n > bestN {
				best, bestN = bk, n
			}
		}
		a[slot] = best
	}
	return a
}
