package core_test

import (
	"testing"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/resource"
)

// TestScheduleLeafMatchesEngine is the differential link between the
// two leaf paths: for every reachable leaf, ScheduleLeaf at the machine
// width must reproduce the comm entry the engine cached for that leaf
// under the same key. Reports are built through ScheduleLeaf, so this
// ties their numbers to the evaluation's.
func TestScheduleLeafMatchesEngine(t *testing.T) {
	const k = 4
	progs := engineWorkloads(t)
	for _, name := range []string{"Grovers", "SHA-1"} {
		p := progs[name]
		if p == nil {
			t.Fatalf("no %s workload", name)
		}
		est, err := resource.New(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []core.Scheduler{core.RCP, core.LPFS} {
			for _, copts := range []comm.Options{{}, {LocalCapacity: -1}} {
				cache := core.NewEvalCache()
				if _, err := core.Evaluate(p, core.EvalOptions{Scheduler: sched, K: k, Comm: copts, Cache: cache}); err != nil {
					t.Fatal(err)
				}
				leaves := 0
				for _, mname := range est.Reachable() {
					mod := p.Modules[mname]
					if !mod.IsLeaf() {
						continue
					}
					leaves++
					want, ok := core.CachedCommEntry(cache, mod, sched, k, 0, copts)
					if !ok {
						t.Fatalf("%s/%s/%+v: no comm entry for leaf %s", name, sched.Name(), copts, mname)
					}
					l, err := core.ScheduleLeaf(mod, sched, k, 0, copts)
					if err != nil {
						t.Fatal(err)
					}
					got := [4]int64{int64(l.S.Length()), l.Comm.Cycles, l.Comm.GlobalMoves, l.Comm.LocalMoves}
					if got != want {
						t.Errorf("%s/%s/%+v: leaf %s: ScheduleLeaf (steps, cycles, global, local) = %v, engine %v",
							name, sched.Name(), copts, mname, got, want)
					}
				}
				if leaves == 0 {
					t.Fatalf("%s: no reachable leaf", name)
				}
			}
		}
	}
}
