package verify_test

import (
	"math/rand"
	"testing"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// TestWidthAndCapacityBounds pins the machine-shape properties for both
// schedulers across the k x d grid: Schedule.Width() never exceeds k,
// and no region-step ever operates on more than d qubits.
func TestWidthAndCapacityBounds(t *testing.T) {
	for _, name := range schedule.Names() {
		sched := schedule.MustLookup(name)
		for _, k := range []int{1, 2, 4, 8} {
			for _, d := range []int{0, 2, 4} {
				var trial int
				var seed int64
				gopts := verify.GenOptions{Ops: 45, Qubits: 6}
				disarm := logReplayOnFailure(t, &trial, &seed, &gopts)
				for trial = 0; trial < 10; trial++ {
					seed = int64(1000*k+d)*100 + int64(trial)
					m := verify.RandomLeaf(rand.New(rand.NewSource(seed)), gopts)
					g, err := dag.Build(m)
					if err != nil {
						t.Fatal(err)
					}
					s, err := sched.Schedule(m, g, k, d)
					if err != nil {
						t.Fatalf("%s k=%d d=%d: %v", name, k, d, err)
					}
					if w := s.Width(); w > k {
						t.Fatalf("%s k=%d d=%d trial %d: width %d exceeds k", name, k, d, trial, w)
					}
					if s.K != k || s.D != d {
						t.Fatalf("%s: schedule stamped (k=%d,d=%d), want (%d,%d)", name, s.K, s.D, k, d)
					}
					for st := range s.Steps {
						for r := 0; r < s.K; r++ {
							ops := s.Region(st, r)
							qubits := 0
							for _, op := range ops {
								qubits += len(m.Ops[op].Args)
							}
							if d > 0 && qubits > d {
								t.Fatalf("%s k=%d d=%d trial %d: step %d region %d uses %d qubits",
									name, k, d, trial, st, r, qubits)
							}
						}
					}
					if err := verify.Schedule(s, g); err != nil {
						t.Fatalf("%s k=%d d=%d trial %d: %v", name, k, d, trial, err)
					}
				}
				disarm()
			}
		}
	}
}

// TestScheduleNeverBeatsCriticalPath pins the lower bound: no legal
// schedule is shorter than the dependency critical path, and none is
// longer than the op count.
func TestScheduleNeverBeatsCriticalPath(t *testing.T) {
	for _, name := range schedule.Names() {
		sched := schedule.MustLookup(name)
		var trial int
		var seed int64
		gopts := verify.GenOptions{Ops: 50, Qubits: 5}
		disarm := logReplayOnFailure(t, &trial, &seed, &gopts)
		for trial = 0; trial < 30; trial++ {
			seed = 5_000 + int64(trial)
			m := verify.RandomLeaf(rand.New(rand.NewSource(seed)), gopts)
			g, err := dag.Build(m)
			if err != nil {
				t.Fatal(err)
			}
			k := 1 + trial%8
			s, err := sched.Schedule(m, g, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			if s.Length() < g.CriticalPath() || s.Length() > len(m.Ops) {
				t.Fatalf("%s k=%d: length %d outside [cp=%d, ops=%d]",
					name, k, s.Length(), g.CriticalPath(), len(m.Ops))
			}
		}
		disarm()
	}
}
