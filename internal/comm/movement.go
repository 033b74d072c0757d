package comm

// This file splits the movement analysis in two. NewMovement does, once
// per schedule, everything no Options field changes: it walks the
// schedule backward, pairs each operand use with the slot's next use,
// and classifies every such journey. Price then folds one Options into
// that profile. Only the scratchpad admissions depend on the options,
// so Price replays the capacity decisions alone and never reads the
// schedule or its module: a design-space sweep over capacities, the
// masking model and the EPR bandwidth costs one profile plus a cheap
// pricing per option. TestPriceMatchesAnalyze pins Price(o) to
// Analyze(s, o).Summary() field for field.
//
// Every journey of a slot between two consecutive uses, at steps t and
// v, falls in one of four classes (see the package comment's placement
// policy; av is the first step after t at which t's region is active):
//
//   - same region, av >= v: the qubit rests in place; no move;
//   - other region, av >= v: one teleport into step v;
//   - other region, av < v: a teleport to global memory at av and one
//     into step v;
//   - same region, av < v: a capacity candidate, evicted at av and
//     returned at v, either through the scratchpad (two local moves),
//     if the region's scratchpad has room when the decision is taken
//     at step t, or through global memory (two teleports).
//
// The first three are static and folded into per-step tallies; a
// slot's first use adds a pre-distributed teleport to its step.

import (
	"fmt"
	"slices"
	"sync"

	"github.com/scaffold-go/multisimd/internal/schedule"
)

// Movement is the option-independent movement profile of one schedule.
// It holds no pointer into the schedule or its module, so it may
// outlive both; it is immutable, and Price may run concurrently.
type Movement struct {
	k       int
	globals int64       // static teleports over every boundary
	steps   []moveStep  // per boundary
	cands   []candidate // capacity candidates, in decision order
}

// moveStep is one boundary's static tallies.
type moveStep struct {
	teleports  int32 // static teleports into this boundary, first-use loads included
	firstLoads int32 // the pre-distributed first-use loads among them
	stall      int32 // largest static masked stall of an operand arriving here, >= 0
}

// candidate is one capacity candidate: a departure from region r after
// its use at step t whose next use is in r at step v, after r
// reactivates at av (t < av < v). Candidates are kept in the order the
// analysis decides them: by t, then region, op and operand.
type candidate struct {
	t, r, av, v int32
}

// scratch is NewMovement's and Price's reusable pointer-free state.
type scratch struct {
	next    []int32 // per slot: step of the next use, -1 = none
	nextReg []int32 // per slot: region of the next use
	active  []int32 // per region: first active step after the one walked
	cands   []candidate

	tally []tally // per boundary, Price
	occ   []int32 // per region: scratchpad occupancy, Price
	head  []int32 // per step: first admitted candidate returning there, Price
	link  []int32 // per candidate: the next one returning at its step, Price
}

// tally is one boundary's teleports, largest masked stall and whether
// a local move lands there, under the options being priced.
type tally struct {
	teleports, stall int32
	local            bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// NewMovement profiles s's movement in one backward pass. Its only
// error is the one Analyze reports for the first qubit used twice in
// one step, in step order.
func NewMovement(s *schedule.Schedule) (*Movement, error) {
	nSteps := len(s.Steps)
	m := &Movement{k: s.K}
	if nSteps == 0 {
		return m, nil
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	next := grown(sc.next, s.M.TotalSlots())
	nextReg := grown(sc.nextReg, len(next))
	active := grown(sc.active, s.K)
	for i := range next {
		next[i] = -1
	}
	for i := range active {
		active[i] = int32(nSteps)
	}
	sc.next, sc.nextReg, sc.active = next, nextReg, active

	m.steps = make([]moveStep, nSteps)
	cands := sc.cands[:0]
	ops := s.Ops()
	var err error
	for t := nSteps - 1; t >= 0; t-- {
		b := s.Bounds(t)
		t32, block, dup := int32(t), len(cands), false
		for r := 0; r < s.K; r++ {
			r32, av := int32(r), active[r]
			for _, op := range ops[b[r]:b[r+1]] {
				for _, slot := range s.M.Ops[op].Args {
					v, vr := next[slot], nextReg[slot]
					if v == t32 {
						// Walking the step forward, the first repeat
						// is the one a forward scan reports; an earlier
						// step's report replaces it.
						if !dup {
							dup = true
							err = fmt.Errorf("comm: qubit %d used twice in step %d", slot, t)
						}
						continue
					}
					next[slot], nextReg[slot] = t32, r32
					if v < 0 {
						continue // final use: reclaimed in place
					}
					if vr == r32 {
						if av < v {
							cands = append(cands, candidate{t: t32, r: r32, av: av, v: v})
						}
						continue
					}
					cost := int32(TeleportCycles)
					if av < v {
						m.steps[av].teleports++
						m.globals++
						cost += TeleportCycles
					}
					st := &m.steps[v]
					st.teleports++
					st.stall = max(st.stall, cost-(v-t32-1))
					m.globals++
				}
			}
			if b[r] < b[r+1] {
				active[r] = t32
			}
		}
		// Candidates are decided forward: this step's block goes in
		// reversed, and the whole list is reversed below.
		slices.Reverse(cands[block:])
	}
	sc.cands = cands
	if err != nil {
		return nil, err
	}
	for _, v := range next {
		if v >= 0 {
			m.steps[v].teleports++
			m.steps[v].firstLoads++
			m.globals++
		}
	}
	if len(cands) > 0 {
		m.cands = make([]candidate, len(cands))
		for i, c := range cands {
			m.cands[len(cands)-1-i] = c
		}
	}
	return m, nil
}

// Length is the profiled schedule's length in timesteps.
func (m *Movement) Length() int { return len(m.steps) }

// Price returns the movement summary of the profiled schedule under
// opts: Analyze(s, opts).Summary() for the schedule s the profile was
// built from. It runs in time linear in the steps and candidates, and a
// warm call allocates nothing.
func (m *Movement) Price(opts Options) Summary {
	var sum Summary
	n := len(m.steps)
	if n == 0 {
		return sum
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	tl := grown(sc.tally, n)
	sc.tally = tl
	for i, st := range m.steps {
		tl[i] = tally{teleports: st.teleports, stall: st.stall}
	}
	globals := m.globals
	evict := func(c candidate, local bool) {
		cost := int32(2 * TeleportCycles)
		if local {
			sum.LocalMoves += 2
			tl[c.av].local, tl[c.v].local = true, true
			cost = 2 * LocalCycles
		} else {
			globals += 2
			tl[c.av].teleports++
			tl[c.v].teleports++
		}
		tl[c.v].stall = max(tl[c.v].stall, cost-(c.v-c.t-1))
	}

	if opts.LocalCapacity == 0 {
		for _, c := range m.cands {
			evict(c, false)
		}
	} else {
		// Replay the scratchpad: a candidate admitted at t occupies its
		// region's scratchpad until the start of step v.
		occ := grown(sc.occ, m.k)
		head := grown(sc.head, n)
		link := grown(sc.link, len(m.cands))
		sc.occ, sc.head, sc.link = occ, head, link
		clear(occ)
		for i := range head {
			head[i] = -1
		}
		freed := 0 // steps whose departures have been applied
		for i, c := range m.cands {
			for ; freed <= int(c.t); freed++ {
				for j := head[freed]; j >= 0; j = link[j] {
					occ[m.cands[j].r]--
				}
			}
			if opts.LocalCapacity > 0 && int(occ[c.r]) >= opts.LocalCapacity {
				evict(c, false)
				continue
			}
			occ[c.r]++
			sum.MaxLocalOccupancy = max(sum.MaxLocalOccupancy, int(occ[c.r]))
			link[i], head[c.v] = head[c.v], int32(i)
			evict(c, true)
		}
	}

	// Fold the boundaries as Analyze charges them.
	for t, x := range tl {
		teleports := int(x.teleports)
		over := int(x.stall)
		runtime := teleports - int(m.steps[t].firstLoads)
		if opts.NoOverlap {
			switch {
			case teleports > 0:
				over = TeleportCycles
			case x.local:
				over = LocalCycles
			default:
				over = 0
			}
			runtime = teleports
		}
		sum.PeakEPRBandwidth = max(sum.PeakEPRBandwidth, teleports)
		if opts.EPRBandwidth > 0 && runtime > opts.EPRBandwidth {
			waves := (runtime + opts.EPRBandwidth - 1) / opts.EPRBandwidth
			over += (waves - 1) * TeleportCycles
		}
		sum.StallCycles += int64(over)
	}
	sum.GlobalMoves, sum.EPRPairs = globals, globals
	sum.Cycles = int64(n) + sum.StallCycles
	return sum
}
