// Package lpfs implements the paper's Longest Path First Scheduling
// algorithm (Algorithm 2, §4.2).
//
// LPFS dedicates l < k SIMD regions to the l longest dependency paths of
// the module's DAG, pinning those chains in place so their qubits never
// move — the key to low communication on the paper's "mostly serial"
// benchmarks. Remaining regions consume the free list of off-path ops.
// Two options control the algorithm, both enabled in the paper's
// experiments: SIMD (a path region opportunistically executes ready free
// ops of the same type, or any type while its path head stalls) and
// Refill (a region whose path completes extracts the next longest path
// from the current ready list).
package lpfs

import (
	"fmt"
	"slices"
	"sync"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

// Options configures LPFS. The paper runs l = 1 with SIMD and Refill on.
type Options struct {
	K int // number of SIMD regions (required, >= 1)
	D int // data parallelism per region; 0 = unbounded
	L int // pinned longest-path regions; 0 defaults to 1, must stay < K unless K == 1

	SIMD   bool
	Refill bool

	// NoOptions suppresses the default-on behavior of SIMD/Refill when
	// both fields are false (for ablation benches).
	NoOptions bool

	// Log, when non-nil, records scheduling decisions: path refills and
	// deadlock-forced placements at LevelStep; stalled pinned heads,
	// d-budget deferrals, and ready-but-path-claimed ops at LevelOp.
	// Logging never changes the schedule and is excluded from cache keys;
	// nil costs a nil check per step.
	Log *obs.DecisionLog
}

func (o Options) l() int {
	l := o.L
	if l == 0 {
		l = 1
	}
	if l > o.K {
		l = o.K
	}
	return l
}

func (o Options) simd() bool   { return o.SIMD || (!o.NoOptions && !o.SIMD && !o.Refill) }
func (o Options) refill() bool { return o.Refill || (!o.NoOptions && !o.SIMD && !o.Refill) }

// Schedule runs LPFS over the materialized leaf module m with dependency
// graph g.
func Schedule(m *ir.Module, g *dag.Graph, opts Options) (*schedule.Schedule, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("lpfs: k must be >= 1, got %d", opts.K)
	}
	if g.M != m {
		return nil, fmt.Errorf("lpfs: graph module %s does not match %s", g.M.Name, m.Name)
	}
	n := g.Len()
	b := schedule.NewBuilder(m, opts.K, opts.D)
	b.Grow(g.CriticalPath()) // no schedule is shorter
	l := opts.l()
	useSIMD, useRefill := opts.simd(), opts.refill()
	log := opts.Log
	gid, _ := g.Groups() // dense group ids, interned once per graph: ops match by integer

	// Every per-call array comes from pooled scratch; ready may grow, so
	// it goes back as it ends.
	sc := scratchPool.Get().(*scratch)
	ready := sc.ready[:0] // the roots first, ascending
	defer func() {
		sc.ready = ready[:0]
		scratchPool.Put(sc)
	}()
	pending := grow(&sc.pending, n)
	for i := 0; i < n; i++ {
		pending[i] = int32(len(g.Preds(i)))
		if pending[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	claimed := grow(&sc.claimed, n) // op belongs to some pinned path
	done := grow(&sc.done, n)       // op scheduled
	clear(claimed)
	clear(done)
	// inStepAt[op] == stamp marks op as placed in the current step; the
	// stamp advances per step, so the buffer is cleared once per call,
	// not per step (the pre-refactor code allocated a map[int32]bool
	// every step).
	inStepAt := grow(&sc.inStepAt, n)
	clear(inStepAt)
	stamp := int32(0)
	blocked := grow(&sc.blocked, n) // scratch: done[i] || claimed[i]
	blockedNow := func() []bool {
		for i := range blocked {
			blocked[i] = done[i] || claimed[i]
		}
		return blocked
	}
	paths := make([][]int32, l)
	claim := func(path []int32) {
		for _, op := range path {
			claimed[op] = true
		}
	}
	for i := 0; i < l; i++ {
		paths[i] = g.NextLongestPath(blockedNow(), ready)
		claim(paths[i])
	}

	// The step-scoped helpers are hoisted out of the loop and capture
	// the rolling step state (stamp, the builder's open step) instead of
	// being re-created — and re-allocated — every timestep.
	isReady := func(op int32) bool {
		return pending[op] == 0 && !done[op] && inStepAt[op] != stamp
	}
	// fits reports whether op alone respects the d budget. Ops wider
	// than d can never execute; placement skips them so the progress
	// check below surfaces the infeasibility as an error instead of
	// emitting an illegal schedule.
	fits := func(op int32) bool {
		return opts.D <= 0 || len(m.Ops[op].Args) <= opts.D
	}
	add := func(op int32) {
		b.Add(op)
		inStepAt[op] = stamp
	}
	// takeFree adds ready, unclaimed free-list ops of group id group to
	// the open region, up to the remaining d budget, in free-list order.
	takeFree := func(group int32, qubits int) {
		for _, op := range ready {
			if claimed[op] || !isReady(op) || gid[op] != group {
				continue
			}
			need := len(m.Ops[op].Args)
			if opts.D > 0 && qubits+need > opts.D {
				if log.Enabled(obs.LevelOp) {
					log.Record(obs.LevelOp, obs.Decision{
						Scheduler: "lpfs", Module: m.Name,
						Step: b.Len(), Region: -1, Op: op,
						Reason: obs.ReasonDBudget,
						Detail: fmt.Sprintf("needs %d qubits, %d/%d used", need, qubits, opts.D),
					})
				}
				break
			}
			add(op)
			qubits += need
		}
	}

	scheduled := 0
	for scheduled < n {
		stamp++

		// Pinned path regions.
		for i := 0; i < l; i++ {
			if useRefill && len(paths[i]) == 0 {
				paths[i] = g.NextLongestPath(blockedNow(), ready)
				claim(paths[i])
				if len(paths[i]) > 0 && log.Enabled(obs.LevelStep) {
					log.Record(obs.LevelStep, obs.Decision{
						Scheduler: "lpfs", Module: m.Name,
						Step: b.Len(), Region: i, Op: paths[i][0],
						Reason: obs.ReasonRefill,
						Detail: fmt.Sprintf("new pinned path of %d ops", len(paths[i])),
					})
				}
			}
			if len(paths[i]) > 0 && isReady(paths[i][0]) && fits(paths[i][0]) {
				head := paths[i][0]
				paths[i] = paths[i][1:]
				add(head)
				if useSIMD {
					takeFree(gid[head], len(m.Ops[head].Args))
				}
				b.Close(i)
				continue
			}
			// Path empty or head stalled: with the SIMD option the region
			// executes arbitrary ready free ops instead of idling.
			if len(paths[i]) > 0 && log.Enabled(obs.LevelOp) {
				head := paths[i][0]
				why := "dependencies unsatisfied"
				if !fits(head) {
					why = fmt.Sprintf("needs %d qubits, d = %d", len(m.Ops[head].Args), opts.D)
				} else if inStepAt[head] == stamp {
					why = "already placed this step"
				}
				log.Record(obs.LevelOp, obs.Decision{
					Scheduler: "lpfs", Module: m.Name,
					Step: b.Len(), Region: i, Op: head,
					Reason: obs.ReasonHeadStalled, Detail: why,
				})
			}
			if useSIMD {
				if group, ok := firstFreeGroup(gid, ready, claimed, isReady); ok {
					takeFree(group, 0)
					b.Close(i)
				}
			}
		}

		// Unallocated regions consume the free list in order.
		for r := l; r < opts.K; r++ {
			group, ok := firstFreeGroup(gid, ready, claimed, isReady)
			if !ok {
				break
			}
			takeFree(group, 0)
			b.Close(r)
		}

		// Ready ops held back only because a pinned path claims them: the
		// free regions above skipped them even if idle.
		if log.Enabled(obs.LevelOp) {
			for _, op := range ready {
				if claimed[op] && isReady(op) {
					log.Record(obs.LevelOp, obs.Decision{
						Scheduler: "lpfs", Module: m.Name,
						Step: b.Len(), Region: -1, Op: op,
						Reason: obs.ReasonRegionPinned,
						Detail: "claimed by a pinned path, waiting for its turn",
					})
				}
			}
		}

		// Deadlock avoidance: if every pinned head stalls on a claimed-
		// but-unready dependency and no free ops exist (possible when
		// SIMD is disabled and k == l), run the first ready op anyway in
		// region 0 to guarantee progress.
		if len(b.Placed()) == 0 {
			forced := int32(-1)
			for _, op := range ready {
				if isReady(op) && fits(op) {
					forced = op
					break
				}
			}
			if forced < 0 {
				for _, op := range ready {
					if isReady(op) && !fits(op) {
						return nil, fmt.Errorf("lpfs: op %d operates on %d qubits, d = %d",
							op, len(m.Ops[op].Args), opts.D)
					}
				}
				return nil, fmt.Errorf("lpfs: deadlock with %d/%d ops scheduled", scheduled, n)
			}
			// Unlink the op from whichever path holds it, at any position.
			for i := range paths {
				for j, op := range paths[i] {
					if op == forced {
						paths[i] = append(paths[i][:j:j], paths[i][j+1:]...)
						break
					}
				}
			}
			if log.Enabled(obs.LevelStep) {
				log.Record(obs.LevelStep, obs.Decision{
					Scheduler: "lpfs", Module: m.Name,
					Step: b.Len(), Region: 0, Op: forced,
					Reason: obs.ReasonForced,
					Detail: "deadlock avoidance: every pinned head stalled",
				})
			}
			add(forced)
			b.Close(0)
		}

		placed := b.Placed()
		scheduled += len(placed)
		for _, op := range placed {
			done[op] = true
			for _, child := range g.Succs(int(op)) {
				pending[child]--
				if pending[child] == 0 {
					ready = append(ready, child)
				}
			}
		}
		b.EndStep()
		ready = compactReady(ready, done)
	}
	return b.Schedule(), nil
}

// firstFreeGroup returns the group id of the first ready, unclaimed op
// in free-list order (the paper's ready.top()).
func firstFreeGroup(gid, ready []int32, claimed []bool, isReady func(int32) bool) (int32, bool) {
	for _, op := range ready {
		if !claimed[op] && isReady(op) {
			return gid[op], true
		}
	}
	return 0, false
}

func compactReady(ready []int32, done []bool) []int32 {
	out := ready[:0]
	for _, op := range ready {
		if !done[op] {
			out = append(out, op)
		}
	}
	return out
}

// scratch is Schedule's reusable per-call state.
type scratch struct {
	pending, ready, inStepAt []int32
	claimed, done, blocked   []bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow resizes *buf to n elements, reusing its storage when it is large
// enough; the contents are left as they were.
func grow[E any](buf *[]E, n int) []E {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}
