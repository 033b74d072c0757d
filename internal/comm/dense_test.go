package comm_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/resource"
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

// TestPriceMatchesAnalyze pins the two-part analysis to the recording
// one: a movement profile priced under any options returns exactly
// Analyze's scalars, and its stall total is both the sum of Analyze's
// overhead vector and the cycles beyond the bare timestep count. It
// covers the seeded corpus under the full option grid plus capacities
// 3 and 5, and every gated benchmark leaf scheduled by RCP and LPFS at
// k=4 under Fig. 8's capacities (none, Q/4, Q/2, unlimited) with each
// NoOverlap/EPRBandwidth setting. Each profile is priced under every
// option of its case, so one profile serves many pricings, as in the
// engine. Capacities must bind somewhere, or the test shows nothing.
func TestPriceMatchesAnalyze(t *testing.T) {
	a := comm.NewAnalyzer()
	var binding int
	check := func(name string, s *schedule.Schedule, grid []comm.Options) {
		t.Helper()
		mv, err := comm.NewMovement(s)
		if err != nil {
			t.Fatal(err)
		}
		if mv.Length() != s.Length() {
			t.Fatalf("%s: profile of %d steps, schedule of %d", name, mv.Length(), s.Length())
		}
		var unlimited comm.Summary
		for _, opts := range grid {
			res, err := a.Analyze(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, want := mv.Price(opts), res.Summary()
			if got != want {
				t.Fatalf("%s opts %+v: price diverges\n got: %+v\nwant: %+v", name, opts, got, want)
			}
			var overhead int64
			for _, o := range res.Overhead {
				overhead += int64(o)
			}
			if got.StallCycles != overhead || got.StallCycles != got.Cycles-int64(s.Length()) {
				t.Fatalf("%s opts %+v: stall %d, overhead sum %d, cycles %d over %d steps",
					name, opts, got.StallCycles, overhead, got.Cycles, s.Length())
			}
			if opts.LocalCapacity < 0 {
				unlimited = got
			} else if opts.LocalCapacity > 0 && unlimited.MaxLocalOccupancy > opts.LocalCapacity {
				binding++
			}
		}
	}
	var grid []comm.Options
	for _, lc := range []int{-1, 0, 1, 2, 3, 5} {
		for _, no := range []bool{false, true} {
			for _, bw := range []int{0, 1, 2} {
				grid = append(grid, comm.Options{LocalCapacity: lc, NoOverlap: no, EPRBandwidth: bw})
			}
		}
	}
	for si, s := range corpusSchedules(t) {
		check(fmt.Sprintf("schedule %d", si), s, grid)
	}
	if binding == 0 {
		t.Fatal("no capacity bound in the random corpus")
	}

	binding = 0
	leaves := 0
	for _, b := range bench.Gated() {
		opts := b.Pipeline
		opts.FTh = 2000
		p, err := core.Build(b.Source, opts)
		if err != nil {
			t.Fatal(err)
		}
		est, err := resource.New(p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := est.MinQubits()
		if err != nil {
			t.Fatal(err)
		}
		var fig8 []comm.Options
		for _, c := range []int{-1, 0, int(q / 4), int(q / 2)} {
			for _, no := range []bool{false, true} {
				for _, bw := range []int{0, 2} {
					fig8 = append(fig8, comm.Options{LocalCapacity: c, NoOverlap: no, EPRBandwidth: bw})
				}
			}
		}
		seen := map[ir.Fingerprint]bool{}
		for _, name := range est.Reachable() {
			mod := p.Modules[name]
			if !mod.IsLeaf() || seen[mod.Fingerprint()] {
				continue
			}
			seen[mod.Fingerprint()] = true
			mat, g, err := core.MaterializeLeaf(mod)
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range []core.Scheduler{core.RCP, core.LPFS} {
				s, err := sched.Schedule(mat, g, 4, 0)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s/%s %s", b.Name, name, sched.Name()), s, fig8)
			}
			leaves++
		}
	}
	if leaves == 0 || binding == 0 {
		t.Fatalf("gated set: %d leaves, %d binding capacities", leaves, binding)
	}
	t.Logf("gated set: %d distinct leaves, %d binding capacities", leaves, binding)
}

// TestPriceConcurrent: a cached profile is shared by every evaluation
// that hits it, so goroutines price one profile at once, each under its
// own options, and must each get Analyze's summary.
func TestPriceConcurrent(t *testing.T) {
	scheds := corpusSchedules(t)
	s := scheds[len(scheds)-1]
	mv, err := comm.NewMovement(s)
	if err != nil {
		t.Fatal(err)
	}
	grid := commOptionCombos()
	want := make([]comm.Summary, len(grid))
	for i, o := range grid {
		res, err := comm.Analyze(s, o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Summary()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				i := (g + n) % len(grid)
				if got := mv.Price(grid[i]); got != want[i] {
					t.Errorf("opts %+v: concurrent price %+v, want %+v", grid[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDenseAnalyzeDuplicateUseError pins the error path: the dense use
// list builder and the movement profile must report the same
// duplicate-use diagnostic as the reference. With duplicates in two
// steps, the one of the earlier step is reported, although the profile
// walks the schedule backward.
func TestDenseAnalyzeDuplicateUseError(t *testing.T) {
	s := corpusSchedules(t)[0]
	lists := func() [][][]int32 {
		lists := make([][][]int32, s.Length())
		for t := range lists {
			for r := 0; r < s.K; r++ {
				lists[t] = append(lists[t], s.Region(t, r))
			}
		}
		return lists
	}
	// Corrupt copies: schedule the same op twice in one step, in step 0
	// alone, then in step 0 and a later step.
	one := lists()
	first := one[0][0][0]
	one[0] = [][]int32{{first, first}}
	two := lists()
	two[0] = [][]int32{{first, first}}
	last := len(two) - 1
	op := s.StepOps(last)[0]
	two[last] = [][]int32{{op, op}}
	for _, steps := range [][][][]int32{one, two} {
		bad, err := schedule.FromLists(s.M, s.K, s.D, steps)
		if err != nil {
			t.Fatal(err)
		}
		_, refErr := referenceAnalyze(bad, comm.Options{})
		_, denseErr := comm.Analyze(bad, comm.Options{})
		_, mvErr := comm.NewMovement(bad)
		if refErr == nil || denseErr == nil || mvErr == nil {
			t.Fatalf("expected errors, got ref=%v dense=%v movement=%v", refErr, denseErr, mvErr)
		}
		if refErr.Error() != denseErr.Error() || refErr.Error() != mvErr.Error() {
			t.Fatalf("diagnostics diverge: ref %q, dense %q, movement %q", refErr, denseErr, mvErr)
		}
		if !strings.HasSuffix(refErr.Error(), "in step 0") {
			t.Fatalf("reference reports %q, want the step-0 duplicate", refErr)
		}
	}
}

// TestAnalyzerSteadyStateAllocs guards the arenas: a warmed Analyzer's
// Analyze allocates only the returned Result — the struct, its two
// vectors, the flat move array and the boundary slice headers —
// regardless of schedule size; NewMovement allocates only the profile
// (the struct, its step tallies and its candidates), and a warm Price
// nothing, under any capacity (checked without -race only). The
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
	mv, err := comm.NewMovement(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := mv.Price(comm.Options{LocalCapacity: 1}); got.LocalMoves == 0 || got.GlobalMoves == 0 {
		t.Fatalf("capacity 1 admits or rejects nothing (%+v): the profile has no candidate", got)
	}
	if raceEnabled {
		// The race detector makes sync.Pool drop a share of its Puts, so
		// the pooled scratch is sometimes allocated afresh.
		t.Log("NewMovement and Price allocation counts are not checked under -race")
		return
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := comm.NewMovement(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Errorf("steady-state NewMovement allocates %.0f times per run, want 3", allocs)
	}
	for _, o := range []comm.Options{{}, {LocalCapacity: 1}, {LocalCapacity: -1, NoOverlap: true, EPRBandwidth: 1}} {
		allocs = testing.AllocsPerRun(100, func() { mv.Price(o) })
		if allocs != 0 {
			t.Errorf("steady-state Price(%+v) allocates %.0f times per run, want 0", o, allocs)
		}
	}
}
