package comm_test

// referenceAnalyze is the pre-refactor map-based implementation of
// comm.Analyze, preserved verbatim (modulo renames) as the differential
// oracle: the dense slot-indexed rewrite must reproduce its Result
// field-for-field on every schedule. It exercises only the package's
// exported API, so it lives unexported in the external test package.

import (
	"fmt"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

type refUse struct {
	step   int32
	region int32
}

func referenceAnalyze(s *schedule.Schedule, opts comm.Options) (*comm.Result, error) {
	nSteps := len(s.Steps)
	res := &comm.Result{
		Boundaries: make([][]comm.Move, nSteps),
		Overhead:   make([]int, nSteps),
	}
	if nSteps == 0 {
		return res, nil
	}

	uses, err := refUseLists(s)
	if err != nil {
		return nil, err
	}
	nextActive := refActivityIndex(s)

	loc := map[int]comm.Loc{} // zero value = global memory
	cursor := map[int]int{}   // per-qubit next-use index
	localOcc := make([]int, s.K)

	type eviction struct {
		slot int
		dest comm.Loc
		kind comm.MoveKind
	}
	evictAt := make(map[int][]eviction)
	leaveAt := make(map[int][]int32) // scratchpad departures: region ids

	pending := map[int]int{}
	lastUse := map[int]int{}
	firstLoads := make([]int, nSteps)

	addMove := func(b int, m comm.Move) {
		if b >= nSteps {
			return // trailing rest, never charged
		}
		res.Boundaries[b] = append(res.Boundaries[b], m)
		cost := 0
		switch m.Kind {
		case comm.GlobalMove:
			res.GlobalMoves++
			res.EPRPairs++
			cost = comm.TeleportCycles
		case comm.LocalMove:
			res.LocalMoves++
			cost = comm.LocalCycles
		}
		pending[m.Slot] += cost
		if opts.NoOverlap && res.Overhead[b] < cost {
			res.Overhead[b] = cost
		}
	}

	for t := 0; t < nSteps; t++ {
		for _, r := range leaveAt[t] {
			localOcc[r]--
		}
		for _, ev := range evictAt[t] {
			addMove(t, comm.Move{Slot: ev.slot, Kind: ev.kind, From: loc[ev.slot], To: ev.dest})
			loc[ev.slot] = ev.dest
		}
		for r := 0; r < s.K; r++ {
			for _, op := range s.Region(t, r) {
				for _, slot := range s.M.Ops[op].Args {
					l := loc[slot]
					dst := comm.Loc{Kind: comm.InRegion, Region: int32(r)}
					switch {
					case l.Kind == comm.InRegion && l.Region == int32(r):
						// Already in place.
					case l.Kind == comm.InLocal && l.Region == int32(r):
						addMove(t, comm.Move{Slot: slot, Kind: comm.LocalMove, From: l, To: dst})
					default:
						addMove(t, comm.Move{Slot: slot, Kind: comm.GlobalMove, From: l, To: dst})
						if _, used := lastUse[slot]; !used {
							firstLoads[t]++
						}
					}
					loc[slot] = dst
					if !opts.NoOverlap {
						if prev, used := lastUse[slot]; used {
							window := t - prev - 1
							if stall := pending[slot] - window; stall > res.Overhead[t] {
								res.Overhead[t] = stall
							}
						}
					}
					pending[slot] = 0
					lastUse[slot] = t
				}
			}
		}
		for r := 0; r < s.K; r++ {
			for _, op := range s.Region(t, r) {
				for _, slot := range s.M.Ops[op].Args {
					cursor[slot]++
					us := uses[slot]
					i := cursor[slot]
					if i >= len(us) {
						loc[slot] = comm.Loc{Kind: comm.InGlobal}
						continue
					}
					next := us[i]
					v := int(next.step)
					a := nSteps
					if t+1 < nSteps {
						a = int(nextActive[r][t+1])
					}
					if next.region == int32(r) {
						if a >= v {
							continue
						}
						if opts.LocalCapacity != 0 &&
							(opts.LocalCapacity < 0 || localOcc[r] < opts.LocalCapacity) {
							evictAt[a] = append(evictAt[a], eviction{
								slot: slot,
								dest: comm.Loc{Kind: comm.InLocal, Region: int32(r)},
								kind: comm.LocalMove,
							})
							localOcc[r]++
							if localOcc[r] > res.MaxLocalOccupancy {
								res.MaxLocalOccupancy = localOcc[r]
							}
							leaveAt[v] = append(leaveAt[v], int32(r))
							continue
						}
						evictAt[a] = append(evictAt[a], eviction{
							slot: slot,
							dest: comm.Loc{Kind: comm.InGlobal},
							kind: comm.GlobalMove,
						})
						continue
					}
					if a < v {
						evictAt[a] = append(evictAt[a], eviction{
							slot: slot,
							dest: comm.Loc{Kind: comm.InGlobal},
							kind: comm.GlobalMove,
						})
					}
				}
			}
		}
	}

	for b := range res.Boundaries {
		g := 0
		for _, mv := range res.Boundaries[b] {
			if mv.Kind == comm.GlobalMove {
				g++
			}
		}
		if g > res.PeakEPRBandwidth {
			res.PeakEPRBandwidth = g
		}
		runtime := g
		if !opts.NoOverlap {
			runtime -= firstLoads[b]
		}
		if opts.EPRBandwidth > 0 && runtime > opts.EPRBandwidth {
			waves := (runtime + opts.EPRBandwidth - 1) / opts.EPRBandwidth
			res.Overhead[b] += (waves - 1) * comm.TeleportCycles
		}
	}

	res.Cycles = int64(nSteps)
	for _, o := range res.Overhead {
		res.Cycles += int64(o)
	}
	return res, nil
}

func refUseLists(s *schedule.Schedule) (map[int][]refUse, error) {
	uses := make(map[int][]refUse)
	for t := range s.Steps {
		for r := 0; r < s.K; r++ {
			for _, op := range s.Region(t, r) {
				for _, slot := range s.M.Ops[op].Args {
					us := uses[slot]
					if len(us) > 0 && us[len(us)-1].step == int32(t) {
						return nil, fmt.Errorf("comm: qubit %d used twice in step %d", slot, t)
					}
					uses[slot] = append(us, refUse{step: int32(t), region: int32(r)})
				}
			}
		}
	}
	return uses, nil
}

func refActivityIndex(s *schedule.Schedule) [][]int32 {
	nSteps := len(s.Steps)
	idx := make([][]int32, s.K)
	for r := 0; r < s.K; r++ {
		idx[r] = make([]int32, nSteps+1)
		idx[r][nSteps] = int32(nSteps)
		for t := nSteps - 1; t >= 0; t-- {
			active := len(s.Region(t, r)) > 0
			if active {
				idx[r][t] = int32(t)
			} else {
				idx[r][t] = idx[r][t+1]
			}
		}
	}
	return idx
}
