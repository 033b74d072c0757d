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

// commOptionCombos is the option grid the differential corpus sweeps:
// every LocalCapacity/NoOverlap/EPRBandwidth combination the experiment
// suite exercises.
func commOptionCombos() []comm.Options {
	var combos []comm.Options
	for _, lc := range []int{0, -1, 1, 2} {
		for _, no := range []bool{false, true} {
			for _, bw := range []int{0, 1, 2} {
				combos = append(combos, comm.Options{LocalCapacity: lc, NoOverlap: no, EPRBandwidth: bw})
			}
		}
	}
	return combos
}

// corpusSchedules builds the seeded schedule corpus: random leaves
// scheduled by both fine-grained schedulers at several machine shapes.
func corpusSchedules(t testing.TB) []*schedule.Schedule {
	var out []*schedule.Schedule
	for seed := int64(0); seed < 12; seed++ {
		for _, wide := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			m := verify.RandomLeaf(rng, verify.GenOptions{Ops: 60, Qubits: 6, Wide: wide})
			g, err := dag.Build(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 4} {
				r, err := rcp.Schedule(m, g, rcp.Options{K: k})
				if err != nil {
					t.Fatal(err)
				}
				l, err := lpfs.Schedule(m, g, lpfs.Options{K: k})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, r, l)
			}
		}
	}
	return out
}

// TestDenseAnalyzeMatchesReference pins the dense slot-indexed Analyze
// to the pre-refactor map-based implementation field-for-field:
// boundaries (move lists), overhead vectors, cycles, move and EPR
// counts, occupancy and bandwidth peaks — across the seeded corpus and
// the full option grid. A single Analyzer instance serves every case,
// so arena reuse across differently-shaped schedules is covered too.
func TestDenseAnalyzeMatchesReference(t *testing.T) {
	scheds := corpusSchedules(t)
	a := comm.NewAnalyzer()
	for si, s := range scheds {
		for _, opts := range commOptionCombos() {
			want, err := referenceAnalyze(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.Analyze(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("schedule %d opts %+v: dense result diverges\n got: %+v\nwant: %+v",
					si, opts, got, want)
			}
			// The pooled package-level entry point must agree as well.
			pooled, err := comm.Analyze(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pooled, want) {
				t.Fatalf("schedule %d opts %+v: pooled result diverges", si, opts)
			}
		}
	}
}

// TestSummarizeMatchesAnalyze pins the summary mode to the recording
// mode across the seeded corpus (rcp and lpfs schedules) and the full
// option grid: Summarize returns exactly Analyze's scalars, its stall
// total is both the sum of Analyze's overhead vector and the cycles
// beyond the bare timestep count, and the pooled
// entry point agrees. One Analyzer alternates between the two modes, so
// arena reuse across them is covered too.
func TestSummarizeMatchesAnalyze(t *testing.T) {
	a := comm.NewAnalyzer()
	for si, s := range corpusSchedules(t) {
		for _, opts := range commOptionCombos() {
			sum, err := a.Summarize(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Analyze(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := res.Summary(); sum != want {
				t.Fatalf("schedule %d opts %+v: summary diverges\n got: %+v\nwant: %+v", si, opts, sum, want)
			}
			var overhead int64
			for _, o := range res.Overhead {
				overhead += int64(o)
			}
			if sum.StallCycles != overhead || sum.StallCycles != sum.Cycles-int64(len(s.Steps)) {
				t.Fatalf("schedule %d opts %+v: stall %d, overhead sum %d, cycles %d over %d steps",
					si, opts, sum.StallCycles, overhead, sum.Cycles, len(s.Steps))
			}
			pooled, err := comm.Summarize(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			if pooled != sum {
				t.Fatalf("schedule %d opts %+v: pooled summary diverges", si, opts)
			}
		}
	}
}

// TestDenseAnalyzeDuplicateUseError pins the error path: the dense use
// list builder must report the same duplicate-use diagnostic as the
// reference.
func TestDenseAnalyzeDuplicateUseError(t *testing.T) {
	s := corpusSchedules(t)[0]
	// Corrupt a copy: schedule the same op twice in one step.
	lists := make([][][]int32, s.Length())
	for t := range lists {
		for r := 0; r < s.K; r++ {
			lists[t] = append(lists[t], s.Region(t, r))
		}
	}
	first := lists[0][0][0]
	lists[0] = [][]int32{{first, first}}
	bad, err := schedule.FromLists(s.M, s.K, s.D, lists)
	if err != nil {
		t.Fatal(err)
	}
	_, refErr := referenceAnalyze(bad, comm.Options{})
	_, denseErr := comm.Analyze(bad, comm.Options{})
	if refErr == nil || denseErr == nil {
		t.Fatalf("expected errors, got ref=%v dense=%v", refErr, denseErr)
	}
	if refErr.Error() != denseErr.Error() {
		t.Fatalf("diagnostics diverge: ref %q, dense %q", refErr, denseErr)
	}
}

// TestAnalyzerSteadyStateAllocs guards the arena: a warmed Analyzer's
// Analyze allocates only the returned Result — the struct, its two
// vectors, the flat move array and the boundary slice headers —
// regardless of schedule size, and its Summarize allocates nothing. The
// map-based original allocated thousands of times on the same input.
func TestAnalyzerSteadyStateAllocs(t *testing.T) {
	scheds := corpusSchedules(t)
	s := scheds[len(scheds)-1]
	a := comm.NewAnalyzer()
	opts := comm.Options{LocalCapacity: 2, EPRBandwidth: 2}
	if _, err := a.Analyze(s, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := a.Analyze(s, opts); err != nil {
			t.Fatal(err)
		}
	})
	// Result struct + Boundaries header + flat move array + Overhead.
	if allocs > 6 {
		t.Errorf("steady-state Analyze allocates %.0f times per run, want <= 6", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := a.Summarize(s, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Summarize allocates %.0f times per run, want 0", allocs)
	}
}
