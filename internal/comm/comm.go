// Package comm implements the paper's data-movement analysis (§2.3, §2.4,
// §2.5, §3.2, §4.4). Given a fine-grained schedule it derives the move
// list (the paper's region 0), classifies each move as a 4-cycle global
// quantum teleportation or a 1-cycle ballistic local-memory move, and
// computes the communication-expanded runtime.
//
// Placement policy, following §2.4/§3.2/§4.4:
//
//   - a qubit whose next operation is in the same region stays in place
//     while the region is idle (idle regions act as passive storage);
//   - when its region becomes active with other work first, the qubit is
//     evicted — to the region's local scratchpad if its next operation
//     returns here and capacity allows (1 cycle each way), otherwise to
//     global memory by teleportation (4 cycles each way);
//   - a qubit whose next operation is in a different region likewise
//     rests in place while its region stays idle and teleports directly
//     to the consumer; if its region reactivates first it is flushed to
//     global memory ("unless the source SIMD region is idle, we move such
//     qubits to the global memory", §4.4).
//
// Timestep cost accounting models the paper's teleportation masking
// (§2.3: EPR pre-distribution lets the compiler "schedule QT operations
// in parallel with the computation steps"): a qubit's accumulated
// movement cost since its previous operation stalls the consuming
// timestep only where the idle window between the two operations is too
// short to hide it. A step's charge is the largest residual stall among
// its arriving operands; each timestep itself costs one cycle. First
// uses are free (input data and EPR pairs are pre-distributed, §2.3).
// The strict non-overlapping accounting of §4.4 — any global move at a
// boundary charges the full four cycles, else any local move charges one
// — is available via Options.NoOverlap for ablation.
package comm

import (
	"fmt"

	"github.com/scaffold-go/multisimd/internal/ir"
)

// MoveKind classifies a qubit movement.
type MoveKind uint8

const (
	// GlobalMove is a quantum teleportation to or from global memory (or
	// between regions), costing TeleportCycles and one EPR pair.
	GlobalMove MoveKind = iota
	// LocalMove is a ballistic move between a region and its scratchpad.
	LocalMove
)

// TeleportCycles is the latency of one quantum teleportation (Fig. 2:
// CNOT, H, two measurements and classically controlled corrections,
// pipelined as 4 logical timesteps).
const TeleportCycles = 4

// LocalCycles is the latency of a ballistic local-memory move (§2.5).
const LocalCycles = 1

// NaiveFactor is the runtime multiplier of the naive movement model,
// where operands teleport from global memory every timestep (§4).
const NaiveFactor = 1 + TeleportCycles

// Loc describes where a qubit resides.
type Loc struct {
	Kind   LocKind
	Region int32 // meaningful for InRegion and InLocal
}

// LocKind enumerates residence kinds.
type LocKind uint8

const (
	// InGlobal is the global quantum memory.
	InGlobal LocKind = iota
	// InRegion is resident inside a SIMD operating region.
	InRegion
	// InLocal is parked in a region's scratchpad memory.
	InLocal
)

// String renders the location for diagnostics.
func (l Loc) String() string {
	switch l.Kind {
	case InGlobal:
		return "global"
	case InRegion:
		return fmt.Sprintf("region%d", l.Region)
	case InLocal:
		return fmt.Sprintf("local%d", l.Region)
	}
	return "invalid"
}

// Move records one qubit movement charged at a step boundary.
type Move struct {
	Slot int
	Kind MoveKind
	From Loc
	To   Loc
}

// Options configures the analysis.
type Options struct {
	// LocalCapacity is the scratchpad size per SIMD region, in qubits.
	// 0 disables local memory; negative means unlimited.
	LocalCapacity int
	// NoOverlap disables teleportation masking: every boundary with a
	// global move charges TeleportCycles and every boundary with only
	// local moves charges LocalCycles, regardless of slack (§4.4's
	// conservative accounting, used by ablation benches).
	NoOverlap bool
	// EPRBandwidth caps simultaneous teleports per step boundary (the
	// paper's EPR distribution channels, §2.3): a boundary with more
	// runtime global moves serializes them in waves, each extra wave
	// costing TeleportCycles. First-use input loads are exempt under the
	// masked model — they ride the pre-distribution like their cycle
	// cost does — but count under NoOverlap's strict accounting. 0 means
	// unlimited bandwidth (the paper's default model).
	EPRBandwidth int
}

// Summary is the scalar outcome of one analysis. Its fields mean what
// Result's fields and StallCycles mean.
type Summary struct {
	Cycles, GlobalMoves, LocalMoves, EPRPairs, StallCycles int64
	MaxLocalOccupancy, PeakEPRBandwidth                    int
}

// Result is the full communication analysis of one schedule: the
// Summary's scalars plus the move list and per-boundary overhead.
type Result struct {
	// Boundaries[b] holds the moves charged at the boundary entering
	// step b.
	Boundaries [][]Move
	// Overhead[b] is the cycle cost at boundary b: TeleportCycles if any
	// global move, else LocalCycles if any local move, else 0.
	Overhead []int
	// Cycles is the communication-expanded runtime:
	// len(Steps) + sum(Overhead).
	Cycles int64
	// GlobalMoves and LocalMoves count individual qubit movements.
	GlobalMoves int64
	LocalMoves  int64
	// EPRPairs consumed (one per teleport).
	EPRPairs int64
	// MaxLocalOccupancy is the peak number of qubits resident in any one
	// region's scratchpad.
	MaxLocalOccupancy int
	// PeakEPRBandwidth is the largest number of teleports at any one
	// step boundary — the EPR distribution rate the machine must
	// sustain (§2.3).
	PeakEPRBandwidth int
}

// StallCycles is the total communication overhead charged on top of the
// bare timestep count: the EPR-stall cycles the movement model could not
// hide behind idle windows (plus wave-serialization overflow under a
// finite EPR bandwidth): the sum of Overhead, which is Cycles minus the
// boundary count.
func (r *Result) StallCycles() int64 { return r.Cycles - int64(len(r.Overhead)) }

// Summary returns the result's scalars.
func (r *Result) Summary() Summary {
	return Summary{r.Cycles, r.GlobalMoves, r.LocalMoves, r.EPRPairs, r.StallCycles(), r.MaxLocalOccupancy, r.PeakEPRBandwidth}
}

// NaiveCycles is the runtime of the paper's baseline: sequential
// execution with operands teleported every timestep (5x the gate count,
// saturating).
func NaiveCycles(gates int64) int64 { return ir.SatMul(NaiveFactor, gates) }
