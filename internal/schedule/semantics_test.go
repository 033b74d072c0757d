package schedule_test

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/sim"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// runScheduledOrder applies the module's gates in schedule order
// (timestep by timestep, region by region) to a state.
func runScheduledOrder(t *testing.T, st *sim.State, s *schedule.Schedule) {
	t.Helper()
	for _, op := range s.Ops() {
		o := &s.M.Ops[op]
		if err := st.Apply(o.Gate, o.Angle, o.Args...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScheduledOrderPreservesSemantics is the semantic soundness check
// for the whole scheduling layer: replaying a circuit in its scheduled
// order — which reorders and groups commuting operations — must produce
// the same quantum state as program order, for both schedulers, across
// machine shapes.
func TestScheduledOrderPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const nQubits = 5
	for trial := 0; trial < 25; trial++ {
		m := verify.RandomLeaf(rng, verify.GenOptions{Ops: 60, Qubits: nQubits})
		g, err := dag.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sim.NewRandomState(nQubits, rng)
		if err != nil {
			t.Fatal(err)
		}
		progOrder := ref.Clone()
		if err := progOrder.RunModule(m); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 4} {
			sr, err := rcp.Schedule(m, g, rcp.Options{K: k})
			if err != nil {
				t.Fatal(err)
			}
			stR := ref.Clone()
			runScheduledOrder(t, stR, sr)
			if !sim.EqualUpToPhase(progOrder, stR, 1e-8) {
				t.Fatalf("trial %d k=%d: RCP schedule changes semantics", trial, k)
			}
			sl, err := lpfs.Schedule(m, g, lpfs.Options{K: k})
			if err != nil {
				t.Fatal(err)
			}
			stL := ref.Clone()
			runScheduledOrder(t, stL, sl)
			if !sim.EqualUpToPhase(progOrder, stL, 1e-8) {
				t.Fatalf("trial %d k=%d: LPFS schedule changes semantics", trial, k)
			}
		}
	}
}

// TestSchedulersConcurrentMatchSerial: RCP and LPFS draw pooled scratch
// (the Builder's and their own per-op arrays), so concurrent calls on
// different leaves must produce exactly the schedules serial calls do.
func TestSchedulersConcurrentMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type leaf struct {
		g    *dag.Graph
		want [2]uint64
	}
	schedulers := [2]func(*dag.Graph) (*schedule.Schedule, error){
		func(g *dag.Graph) (*schedule.Schedule, error) { return rcp.Schedule(g.M, g, rcp.Options{K: 3}) },
		func(g *dag.Graph) (*schedule.Schedule, error) { return lpfs.Schedule(g.M, g, lpfs.Options{K: 3}) },
	}
	leaves := make([]leaf, 8)
	for i := range leaves {
		m := verify.RandomLeaf(rng, verify.GenOptions{Ops: 100 + 60*i, Qubits: 4 + i})
		g, err := dag.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		leaves[i].g = g
		for j, sched := range schedulers {
			s, err := sched(g)
			if err != nil {
				t.Fatal(err)
			}
			leaves[i].want[j] = verify.ScheduleDigest(s)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := range leaves {
					l := &leaves[(i*(w+1)+r)%len(leaves)]
					for j, sched := range schedulers {
						s, err := sched(l.g)
						if err != nil {
							t.Error(err)
							return
						}
						if d := verify.ScheduleDigest(s); d != l.want[j] {
							t.Errorf("worker %d: scheduler %d digest %016x, serial %016x", w, j, d, l.want[j])
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
