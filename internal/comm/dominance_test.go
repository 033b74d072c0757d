package comm_test

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// TestCapacityDominance pins a property of the scratchpad model. The
// capacity is read only in the analyzer's admission check, so an
// unlimited run with peak occupancy P is the result of every capacity
// C >= P, and a run under C whose own peak stays below C is the
// unlimited result. Both are checked
// field for field over the random-leaf corpus, scheduled by RCP and LPFS
// at widths 1-4 under every NoOverlap/EPRBandwidth setting. Capacities
// below P must bind somewhere in the corpus, or the test shows nothing.
func TestCapacityDominance(t *testing.T) {
	var scheds []*schedule.Schedule
	for seed := int64(0); seed < 10; seed++ {
		for _, wide := range []bool{false, true} {
			m := verify.RandomLeaf(rand.New(rand.NewSource(seed)), verify.GenOptions{Ops: 80, Qubits: 10, Wide: wide})
			g, err := dag.Build(m)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 4; k++ {
				r, err := rcp.Schedule(m, g, rcp.Options{K: k})
				if err != nil {
					t.Fatal(err)
				}
				l, err := lpfs.Schedule(m, g, lpfs.Options{K: k})
				if err != nil {
					t.Fatal(err)
				}
				scheds = append(scheds, r, l)
			}
		}
	}
	a := comm.NewAnalyzer()
	analyze := func(s *schedule.Schedule, o comm.Options) *comm.Result {
		t.Helper()
		res, err := a.Analyze(s, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var checked, binding, unbound int
	for si, s := range scheds {
		for _, no := range []bool{false, true} {
			for _, bw := range []int{0, 1, 2} {
				unl := analyze(s, comm.Options{LocalCapacity: -1, NoOverlap: no, EPRBandwidth: bw})
				peak := unl.MaxLocalOccupancy
				for c := 0; c <= peak+2; c++ {
					o := comm.Options{LocalCapacity: c, NoOverlap: no, EPRBandwidth: bw}
					got := analyze(s, o)
					same := reflect.DeepEqual(got, unl)
					switch {
					case c >= peak && !same:
						t.Fatalf("schedule %d %+v: capacity %d >= unlimited peak %d differs from unlimited:\n got %+v\nwant %+v",
							si, o, c, peak, got, unl)
					case got.MaxLocalOccupancy < c && !same:
						t.Fatalf("schedule %d %+v: capacity %d with own peak %d differs from unlimited:\n got %+v\nwant %+v",
							si, o, c, got.MaxLocalOccupancy, got, unl)
					case c < peak && !same:
						binding++
					case got.MaxLocalOccupancy < c:
						unbound++
					}
					checked++
				}
			}
		}
	}
	if binding == 0 || unbound == 0 {
		t.Fatalf("vacuous corpus: %d capacities checked, %d bound, %d unbound below their capacity", checked, binding, unbound)
	}
	t.Logf("%d capacities checked: %d bound, %d unbound below their capacity", checked, binding, unbound)
}
