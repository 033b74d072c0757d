// Package rcp implements the paper's Ready Critical Path scheduler
// (Algorithm 1), extended for the Multi-SIMD execution model.
//
// RCP keeps a ready list — only ops whose dependencies are all satisfied —
// and, at every timestep, repeatedly picks the (SIMD region, operation
// type) pair of maximum weight until regions run out:
//
//	weight = w_op·prevalence(optype) + w_dist·locality(op, region) − w_slack·slack(op)
//
// prevalence groups qubits to expose data parallelism, locality counts
// operands already resident in the candidate region (movement cost), and
// slack demotes ops whose next use is far away. All scheduled ops of the
// chosen type land in the chosen region in one step.
package rcp

import (
	"fmt"
	"slices"
	"sync"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

// Options configures the scheduler. The paper's experiments use the zero
// Weights value (all weights 1) and D = 0 (d = ∞).
type Options struct {
	K int // number of SIMD regions (required, >= 1)
	D int // data parallelism per region; 0 = unbounded

	// WOp, WDist and WSlack scale the three weight terms; zero values
	// default to 1. Set a term negative to invert it (used by ablations).
	WOp    float64
	WDist  float64
	WSlack float64
	// ExplicitWeights takes WOp, WDist and WSlack as given, zeros
	// included, instead of defaulting zero weights to 1.
	ExplicitWeights bool

	// Log, when non-nil, records placement decisions: each winning
	// (group, region) pick at LevelStep, plus per-op deferrals — ops of
	// the winning group dropped for the d budget, and ops that outranked
	// the winner before the slack penalty — at LevelOp. Logging never
	// changes the schedule and is excluded from cache keys; nil costs a
	// nil check per step.
	Log *obs.DecisionLog
}

func (o Options) weights() (wop, wdist, wslack float64) {
	if o.ExplicitWeights {
		return o.WOp, o.WDist, o.WSlack
	}
	wop, wdist, wslack = o.WOp, o.WDist, o.WSlack
	if wop == 0 {
		wop = 1
	}
	if wdist == 0 {
		wdist = 1
	}
	if wslack == 0 {
		wslack = 1
	}
	return
}

// Schedule runs RCP over the materialized leaf module m with dependency
// graph g.
func Schedule(m *ir.Module, g *dag.Graph, opts Options) (*schedule.Schedule, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("rcp: k must be >= 1, got %d", opts.K)
	}
	if g.M != m {
		return nil, fmt.Errorf("rcp: graph module %s does not match %s", g.M.Name, m.Name)
	}
	wop, wdist, wslack := opts.weights()
	n := g.Len()
	b := schedule.NewBuilder(m, opts.K, opts.D)
	b.Grow(g.CriticalPath()) // no schedule is shorter
	log := opts.Log

	// Every per-call array comes from pooled scratch; ready may grow, so
	// it goes back as it ends.
	sc := scratchPool.Get().(*scratch)
	ready := sc.ready[:0] // the roots first, ascending
	defer func() {
		sc.ready = ready[:0]
		scratchPool.Put(sc)
	}()
	pending := grow(&sc.pending, n) // unsatisfied dependency counts
	for i := 0; i < n; i++ {
		pending[i] = int32(len(g.Preds(i)))
		if pending[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	loc := grow(&sc.loc, m.TotalSlots()) // qubit slot -> region, -1 = memory
	for i := range loc {
		loc[i] = -1
	}
	scheduled := 0

	// Group keys are interned once per graph into dense ids, so the
	// prevalence tally is a slice indexed by id: counted over the ready
	// list each auction round and zeroed by walking the same list. The
	// per-op locality counts reuse one k-sized slice instead of
	// allocating per ready candidate.
	gid, groups := g.Groups()
	prev := grow(&sc.prev, groups)
	clear(prev)
	counts := grow(&sc.counts, opts.K)
	regionFree := grow(&sc.regionFree, opts.K)
	// cand weights are retained only when op-level decision logging asks
	// for them (slack-lost detection).
	type cand struct {
		op          int32
		w, wNoSlack float64
	}
	var cands []cand

	for scheduled < n {
		if len(ready) == 0 {
			return nil, fmt.Errorf("rcp: deadlock with %d/%d ops scheduled", scheduled, n)
		}
		for r := range regionFree {
			regionFree[r] = true
		}
		freeRegions := opts.K

		for freeRegions > 0 && len(ready) > 0 {
			// Prevalence of each group in the ready list.
			for _, op := range ready {
				prev[gid[op]]++
			}
			// Find the max-weight (op, region) pair.
			bestW := 0.0
			bestOp := int32(-1)
			bestRegion := -1
			cands = cands[:0]
			logOps := log.Enabled(obs.LevelOp)
			for _, op := range ready {
				base := wop*float64(prev[gid[op]]) - wslack*float64(g.Slack(op))
				// Locality: prefer the free region already holding the
				// most operands of this op, lowest region index on ties
				// (a map here would let Go's random iteration order pick
				// the winner and make schedules nondeterministic);
				// memory-resident operands fall back to the first free
				// region.
				locality := 0
				region := -1
				for r := range counts {
					counts[r] = 0
				}
				for _, slot := range m.Ops[op].Args {
					if r := loc[slot]; r >= 0 && regionFree[r] {
						counts[r]++
					}
				}
				for r, c := range counts {
					if c > locality {
						locality = c
						region = r
					}
				}
				if region < 0 {
					for r := 0; r < opts.K; r++ {
						if regionFree[r] {
							region = r
							break
						}
					}
				}
				w := base + wdist*float64(locality)
				if logOps {
					cands = append(cands, cand{op: op, w: w, wNoSlack: w + wslack*float64(g.Slack(op))})
				}
				if bestOp < 0 || w > bestW {
					bestW = w
					bestOp = op
					bestRegion = region
				}
			}
			for _, op := range ready {
				prev[gid[op]] = 0
			}
			if bestOp < 0 {
				break
			}
			// Extract all ready ops of the winning type into the region,
			// respecting the d limit.
			group := gid[bestOp]
			qubits := 0
			rest := ready[:0]
			for _, op := range ready {
				if gid[op] == group {
					need := len(m.Ops[op].Args)
					if opts.D == 0 || qubits+need <= opts.D {
						b.Add(op)
						qubits += need
						continue
					}
					if logOps {
						log.Record(obs.LevelOp, obs.Decision{
							Scheduler: "rcp", Module: m.Name,
							Step: b.Len(), Region: bestRegion, Op: op,
							Reason: obs.ReasonDBudget,
							Detail: fmt.Sprintf("needs %d qubits, %d/%d used", need, qubits, opts.D),
						})
					}
				}
				rest = append(rest, op)
			}
			ready = rest
			taken := b.Close(bestRegion)
			if log.Enabled(obs.LevelStep) {
				log.Record(obs.LevelStep, obs.Decision{
					Scheduler: "rcp", Module: m.Name,
					Step: b.Len(), Region: bestRegion, Op: bestOp,
					Reason: obs.ReasonChosen,
					Detail: fmt.Sprintf("weight %.3g, group of %d", bestW, len(taken)),
				})
			}
			if logOps {
				for _, c := range cands {
					if c.op != bestOp && c.w < bestW && c.wNoSlack > bestW {
						log.Record(obs.LevelOp, obs.Decision{
							Scheduler: "rcp", Module: m.Name,
							Step: b.Len(), Region: bestRegion, Op: c.op,
							Reason: obs.ReasonSlackLost,
							Detail: fmt.Sprintf("weight %.3g beat winner before slack (%.3g after)", c.wNoSlack, c.w),
						})
					}
				}
			}
			regionFree[bestRegion] = false
			freeRegions--
			for _, op := range taken {
				for _, slot := range m.Ops[op].Args {
					loc[slot] = int32(bestRegion)
				}
			}
		}

		placed := b.Placed()
		if len(placed) == 0 {
			return nil, fmt.Errorf("rcp: made no progress at step %d", b.Len())
		}
		scheduled += len(placed)
		// Release children whose dependencies completed this step, in
		// placement order (EndStep reorders the step into region order).
		for _, op := range placed {
			for _, child := range g.Succs(int(op)) {
				pending[child]--
				if pending[child] == 0 {
					ready = append(ready, child)
				}
			}
		}
		b.EndStep()
	}
	return b.Schedule(), nil
}

// scratch is Schedule's reusable per-call state.
type scratch struct {
	pending, ready, loc, prev []int32
	counts                    []int
	regionFree                []bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow resizes *buf to n elements, reusing its storage when it is large
// enough; the contents are left as they were.
func grow[E any](buf *[]E, n int) []E {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}
