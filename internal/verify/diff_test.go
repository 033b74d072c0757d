package verify_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/sim"
	"github.com/scaffold-go/multisimd/internal/verify"

	// Side-effect imports: the differential harness runs every scheduler
	// in the global registry, so the built-in algorithms must register.
	_ "github.com/scaffold-go/multisimd/internal/lpfs"
	_ "github.com/scaffold-go/multisimd/internal/rcp"
)

// diffTrials is the per-scheduler module count of the differential
// harness. Every trial exercises one random module under a rotating
// (k, d, comm) configuration.
const diffTrials = 200

// diffConfig derives the trial's machine and movement configuration.
func diffConfig(trial int) (k, d int, copts comm.Options) {
	k = []int{1, 2, 3, 4, 8}[trial%5]
	d = []int{0, 0, 2, 4}[trial%4]
	switch trial % 3 {
	case 1:
		copts.LocalCapacity = 1 + trial%4
	case 2:
		copts.LocalCapacity = -1
	}
	if trial%7 == 3 {
		copts.NoOverlap = true
	}
	if trial%11 == 5 {
		copts.EPRBandwidth = 1 + trial%3
	}
	return k, d, copts
}

// TestDifferentialSchedulers is the randomized cross-scheduler oracle:
// every registered scheduler runs on the same seeded random modules, and
// for each schedule the independent verifier checks full Multi-SIMD
// legality plus move-list consistency, while the state-vector simulator
// replays the scheduled order against program order. Any scheduler,
// analysis or cache regression that bends the execution contract fails
// here with a (module, step, region, op) diagnostic.
func TestDifferentialSchedulers(t *testing.T) {
	names := schedule.Names()
	if len(names) < 2 {
		t.Fatalf("registry holds %v, want at least rcp and lpfs", names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sched := schedule.MustLookup(name)
			var trial int
			var seed int64
			gopts := verify.GenOptions{Ops: 50}
			disarm := logReplayOnFailure(t, &trial, &seed, &gopts)
			for trial = 0; trial < diffTrials; trial++ {
				k, d, copts := diffConfig(trial)
				nQubits := 4 + trial%3
				// Per-trial seed: a failure replays from this one seed
				// without re-running the earlier trials.
				seed = 20260806 + int64(trial)
				rng := rand.New(rand.NewSource(seed))
				gopts.Qubits = nQubits
				m := verify.RandomLeaf(rng, gopts)
				g, err := dag.Build(m)
				if err != nil {
					t.Fatal(err)
				}
				s, err := sched.Schedule(m, g, k, d)
				if err != nil {
					t.Fatalf("trial %d k=%d d=%d: %v", trial, k, d, err)
				}
				res, err := comm.Analyze(s, copts)
				if err != nil {
					t.Fatalf("trial %d k=%d d=%d: comm: %v", trial, k, d, err)
				}
				if err := verify.Full(s, g, res, copts); err != nil {
					t.Fatalf("trial %d k=%d d=%d opts=%+v: %v", trial, k, d, copts, err)
				}
				// Semantic equivalence: scheduled order replays to the
				// same state as program order.
				ref, err := sim.NewRandomState(nQubits, rng)
				if err != nil {
					t.Fatal(err)
				}
				progOrder := ref.Clone()
				if err := progOrder.RunModule(m); err != nil {
					t.Fatal(err)
				}
				schedOrder := ref.Clone()
				if err := runScheduledOrder(schedOrder, s); err != nil {
					t.Fatal(err)
				}
				if !sim.EqualUpToPhase(progOrder, schedOrder, 1e-8) {
					t.Fatalf("trial %d k=%d d=%d: schedule changes circuit semantics", trial, k, d)
				}
			}
			disarm()
		})
	}
}

// runScheduledOrder applies the module's gates in schedule order —
// timestep by timestep, region by region — to a state.
func runScheduledOrder(st *sim.State, s *schedule.Schedule) error {
	for t := range s.Steps {
		for _, op := range s.StepOps(t) {
			o := &s.M.Ops[op]
			if err := st.Apply(o.Gate, o.Angle, o.Args...); err != nil {
				return fmt.Errorf("step %d op %d: %w", t, op, err)
			}
		}
	}
	return nil
}

// TestDifferentialWideGates runs a shorter sweep with Toffoli, Fredkin
// and Swap in the mix (d unbounded — wide gates need 3 qubits).
func TestDifferentialWideGates(t *testing.T) {
	for _, name := range schedule.Names() {
		sched := schedule.MustLookup(name)
		var trial int
		var seed int64
		gopts := verify.GenOptions{Ops: 40, Qubits: 5, Wide: true}
		disarm := logReplayOnFailure(t, &trial, &seed, &gopts)
		for trial = 0; trial < 40; trial++ {
			k := 1 + trial%4
			seed = 17_000 + int64(trial)
			rng := rand.New(rand.NewSource(seed))
			m := verify.RandomLeaf(rng, gopts)
			g, err := dag.Build(m)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.Schedule(m, g, k, 0)
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			res, err := comm.Analyze(s, comm.Options{LocalCapacity: -1})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Full(s, g, res, comm.Options{LocalCapacity: -1}); err != nil {
				t.Fatalf("%s trial %d k=%d: %v", name, trial, k, err)
			}
			ref, err := sim.NewRandomState(5, rng)
			if err != nil {
				t.Fatal(err)
			}
			progOrder := ref.Clone()
			if err := progOrder.RunModule(m); err != nil {
				t.Fatal(err)
			}
			schedOrder := ref.Clone()
			if err := runScheduledOrder(schedOrder, s); err != nil {
				t.Fatal(err)
			}
			if !sim.EqualUpToPhase(progOrder, schedOrder, 1e-8) {
				t.Fatalf("%s trial %d k=%d: schedule changes circuit semantics", name, trial, k)
			}
		}
		disarm()
	}
}

// TestDifferentialSequentialBaseline pins the trivial baseline: the
// 1-op-per-step sequential schedule of any random module verifies fully.
func TestDifferentialSequentialBaseline(t *testing.T) {
	var trial int
	var seed int64
	gopts := verify.GenOptions{Ops: 30, Qubits: 4, Measure: true}
	disarm := logReplayOnFailure(t, &trial, &seed, &gopts)
	for trial = 0; trial < 50; trial++ {
		seed = 3_000 + int64(trial)
		m := verify.RandomLeaf(rand.New(rand.NewSource(seed)), gopts)
		g, err := dag.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		s := schedule.Sequential(m, 1)
		res, err := comm.Analyze(s, comm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Full(s, g, res, comm.Options{}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	disarm()
}
