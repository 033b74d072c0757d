package schedule_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/verify"
)

func mod(t *testing.T) (*ir.Module, *dag.Graph) {
	t.Helper()
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 4}})
	m.Gate(qasm.H, 0).Gate(qasm.H, 1).Gate(qasm.CNOT, 0, 1).Gate(qasm.X, 2).Gate(qasm.X, 3)
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, g
}

// mustLists builds a schedule from nested per-step region lists.
func mustLists(t *testing.T, m *ir.Module, k, d int, steps [][][]int32) *schedule.Schedule {
	t.Helper()
	s, err := schedule.FromLists(m, k, d, steps)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// lists reads a schedule back as nested lists, k regions per step, an
// empty region as nil.
func lists(s *schedule.Schedule) [][][]int32 {
	out := make([][][]int32, s.Length())
	for t := range out {
		out[t] = make([][]int32, s.K)
		for r := range out[t] {
			if ops := s.Region(t, r); len(ops) > 0 {
				out[t][r] = slices.Clone(ops)
			}
		}
	}
	return out
}

func TestSequentialSchedule(t *testing.T) {
	m, g := mod(t)
	s := schedule.Sequential(m, 1)
	if s.Length() != 5 || s.Width() != 1 || s.TotalOps() != 5 {
		t.Fatalf("len=%d width=%d ops=%d", s.Length(), s.Width(), s.TotalOps())
	}
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestValidSIMDSchedule(t *testing.T) {
	m, g := mod(t)
	s := mustLists(t, m, 2, 0, [][][]int32{
		{{0, 1}, {3, 4}}, // H group, X group
		{{2}},            // CNOT
	})
	if err := s.Validate(g); err != nil {
		t.Fatal(err)
	}
	if s.Width() != 2 {
		t.Errorf("width %d", s.Width())
	}
	at := s.StepOf()
	if at[2] != 1 {
		t.Errorf("CNOT at step %d", at[2])
	}
	if !slices.Contains(s.Region(0, 0), 0) || !slices.Contains(s.Region(0, 1), 3) {
		t.Errorf("step 0 regions: %v, %v", s.Region(0, 0), s.Region(0, 1))
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	m, g := mod(t)
	cases := map[string]struct {
		k     int
		steps [][][]int32
	}{
		"mixed types in region": {2, [][][]int32{
			{{0, 3}},
			{{1, 4}},
			{{2}},
		}},
		"dependency violated": {2, [][][]int32{
			{{0}, {2}},
			{{1}, {3}},
			{{4}},
		}},
		"op missing": {2, [][][]int32{
			{{0, 1}},
			{{2}, {3}},
		}},
		"op twice": {2, [][][]int32{
			{{0, 1}},
			{{2}, {3}},
			{{3, 4}},
		}},
		"op out of range": {2, [][][]int32{
			{{0, 1}, {3, 4}},
			{{2}, {5}},
		}},
		"too many regions": {1, [][][]int32{
			{{0}, {1}},
			{{2}},
			{{3, 4}},
		}},
	}
	for name, c := range cases {
		s, err := schedule.FromLists(m, c.k, 0, c.steps)
		if err == nil {
			err = s.Validate(g)
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDLimit(t *testing.T) {
	m, g := mod(t)
	s := mustLists(t, m, 1, 1, [][][]int32{
		{{0, 1}},
		{{2}},
		{{3, 4}},
	})
	if err := s.Validate(g); err == nil {
		t.Error("d limit not enforced")
	}
	s.D = 2
	// CNOT uses 2 qubits, fits d=2.
	if err := s.Validate(g); err != nil {
		t.Errorf("d=2 should fit: %v", err)
	}
}

// TestCompactLayout pins the slab layout: every step holds exactly K
// regions (empty ones included), regions closed in any order read back
// in region order with their op order kept, and the per-step summaries
// agree with the region windows.
func TestCompactLayout(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 8}})
	for i := 0; i < 8; i++ {
		m.Gate(qasm.H, i)
	}
	type close struct {
		r   int
		ops []int32
	}
	cases := []struct {
		name  string
		k     int
		steps [][]close // Close order within each step
		want  [][][]int32
	}{
		{name: "zero steps", k: 3},
		{name: "k=1", k: 1,
			steps: [][]close{{{0, []int32{0, 1}}}, {{0, []int32{2}}}},
			want:  [][][]int32{{{0, 1}}, {{2}}}},
		{name: "empty regions", k: 4,
			steps: [][]close{{{1, []int32{3}}, {3, nil}}, {{0, nil}}, {{2, []int32{4, 5}}}},
			want:  [][][]int32{{nil, {3}, nil, nil}, {nil, nil, nil, nil}, {nil, nil, {4, 5}, nil}}},
		{name: "out-of-order close", k: 3,
			steps: [][]close{
				{{2, []int32{5, 1}}, {0, []int32{7}}, {1, []int32{0, 6, 2}}},
				{{1, []int32{4}}, {0, []int32{3}}},
			},
			want: [][][]int32{{{7}, {0, 6, 2}, {5, 1}}, {{3}, {4}, nil}}},
	}
	for _, c := range cases {
		b := schedule.NewBuilder(m, c.k, 0)
		var placed [][]int32
		for _, st := range c.steps {
			for _, cl := range st {
				for _, op := range cl.ops {
					b.Add(op)
				}
				if got := b.Close(cl.r); !slices.Equal(got, cl.ops) {
					t.Errorf("%s: Close(%d) returned %v, want %v", c.name, cl.r, got, cl.ops)
				}
			}
			placed = append(placed, slices.Clone(b.Placed()))
			b.EndStep()
		}
		s := b.Schedule()
		if got := lists(s); !reflect.DeepEqual(got, c.want) && len(c.want)+len(got) > 0 {
			t.Errorf("%s: regions %v, want %v", c.name, got, c.want)
		}
		if s.Length() != len(c.want) || len(s.Steps) != len(c.want) {
			t.Errorf("%s: length %d, want %d", c.name, s.Length(), len(c.want))
		}
		total, width := 0, 0
		var all []int32
		for st, regions := range c.want {
			ops, busy := 0, 0
			var stepOps []int32
			for _, r := range regions {
				ops += len(r)
				if len(r) > 0 {
					busy++
				}
				stepOps = append(stepOps, r...)
			}
			if s.Steps[st].Ops() != ops || s.Steps[st].Busy() != busy {
				t.Errorf("%s: step %d summary %d ops %d busy, want %d/%d",
					c.name, st, s.Steps[st].Ops(), s.Steps[st].Busy(), ops, busy)
			}
			if got := s.StepOps(st); !slices.Equal(got, stepOps) {
				t.Errorf("%s: step %d ops %v, want %v", c.name, st, got, stepOps)
			}
			if got := placed[st]; !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(stepOps))) {
				t.Errorf("%s: step %d placed %v, want the ops of %v", c.name, st, got, stepOps)
			}
			total += ops
			width = max(width, busy)
			all = append(all, stepOps...)
		}
		if s.TotalOps() != total || s.Width() != width || !slices.Equal(s.Ops(), all) {
			t.Errorf("%s: %d ops, width %d, slab %v; want %d, %d, %v",
				c.name, s.TotalOps(), s.Width(), s.Ops(), total, width, all)
		}
		// The nested-list constructor yields the same layout.
		if c.want != nil {
			if got := lists(mustLists(t, m, c.k, 0, c.want)); !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s: FromLists regions %v, want %v", c.name, got, c.want)
			}
		}
	}
	if _, err := schedule.FromLists(m, 2, 0, [][][]int32{{{0}}, {{1}, {2}, {3}}}); err == nil {
		t.Error("FromLists accepted a step with 3 regions at k=2")
	}
}

// TestBuilderWindowsDoNotAlias is the aliasing guard for the slab: the
// region windows a built schedule hands out are cap-clipped, so
// appending to any of them leaves every other region unchanged. A
// region closed with no ops reads back empty.
func TestBuilderWindowsDoNotAlias(t *testing.T) {
	m, g := mod(t)
	build := func() *schedule.Schedule {
		b := schedule.NewBuilder(m, 2, 0)
		b.Add(0)
		b.Add(1)
		b.Close(1) // the H group, placed in region 1 first
		b.Add(3)
		b.Add(4)
		b.Close(0) // the X group
		b.EndStep()
		b.Add(2)
		b.Close(0) // the CNOT
		if ops := b.Close(1); len(ops) != 0 {
			t.Fatalf("empty close returned %v", ops)
		}
		if b.Len() != 1 || len(b.Placed()) != 1 {
			t.Fatalf("open step %d holds %v", b.Len(), b.Placed())
		}
		b.EndStep()
		return b.Schedule()
	}
	built := build()
	if err := built.Validate(g); err != nil {
		t.Fatal(err)
	}
	want := [][][]int32{{{3, 4}, {0, 1}}, {{2}, nil}}
	if got := lists(built); !reflect.DeepEqual(got, want) {
		t.Fatalf("built %v, want %v", got, want)
	}
	for st := range want {
		for r := range want[st] {
			s := build()
			_ = append(s.Region(st, r), 99)
			_ = append(s.StepOps(st), 99)
			_ = append(s.Ops(), 99)
			if got := lists(s); !reflect.DeepEqual(got, want) {
				t.Errorf("append to step %d region %d: got %v", st, r, got)
			}
		}
	}
}

// pointerFree reports whether values of type t hold no pointers.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TestScheduleLayoutIsPointerFree: beyond the module pointer, a schedule
// is slices of pointer-free elements, so the garbage collector never
// scans per-step or per-region data.
func TestScheduleLayoutIsPointerFree(t *testing.T) {
	st := reflect.TypeOf(schedule.Schedule{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Name == "M" {
			continue
		}
		ok := pointerFree(f.Type)
		if f.Type.Kind() == reflect.Slice {
			ok = pointerFree(f.Type.Elem())
		}
		if !ok {
			t.Errorf("Schedule.%s (%v) holds pointers", f.Name, f.Type)
		}
	}
}

// TestBuilderBytesPerSchedule bounds what building one schedule
// allocates: a 2000-op schedule of 500 steps at k=4, its regions closed
// out of order, costs its op slab (4 B per op), one offset per region
// per step (4 B) and an 8 B step summary, 40 B per step here; the
// builder's own scratch is pooled. Per-step or per-region slice headers
// (24 B each, 136 B per step here) coming back more than triple it. The
// bound is twice the layout, because the race detector drops pooled
// scratch at random and a dropped scratch is reallocated.
func TestBuilderBytesPerSchedule(t *testing.T) {
	const k, steps, perStep = 4, 500, 4
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: steps * perStep}})
	for i := 0; i < steps*perStep; i++ {
		m.Gate(qasm.H, i)
	}
	build := func() *schedule.Schedule {
		b := schedule.NewBuilder(m, k, 0)
		op := int32(0)
		for st := 0; st < steps; st++ {
			for _, r := range []int{2, 0, 3, 1} {
				b.Add(op)
				op++
				b.Close(r)
			}
			b.EndStep()
		}
		return b.Schedule()
	}
	build() // warm
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	exact := uint64(4*steps*perStep + 4*(steps*k+1) + 8*steps)
	if bound := 2 * exact; got > bound {
		t.Errorf("building a %d-step schedule allocates %d B, bound %d B (layout %d B)", steps, got, bound, exact)
	}
}

// BenchmarkBuilder builds a 2000-op, 500-step schedule at k=4 with its
// regions closed out of order, the RCP auction's pattern.
func BenchmarkBuilder(b *testing.B) {
	const k, steps, perStep = 4, 500, 4
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: steps * perStep}})
	for i := 0; i < steps*perStep; i++ {
		m.Gate(qasm.H, i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bl := schedule.NewBuilder(m, k, 0)
		op := int32(0)
		for st := 0; st < steps; st++ {
			for _, r := range []int{2, 0, 3, 1} {
				bl.Add(op)
				op++
				bl.Close(r)
			}
			bl.EndStep()
		}
		if s := bl.Schedule(); s.TotalOps() != steps*perStep {
			b.Fatal(s.TotalOps())
		}
	}
}

// TestRecycledSlabsMatchFresh: a schedule whose slabs come from
// released schedules (larger, smaller and of other machine shapes) is
// the schedule a fresh Builder makes: same digest, same per-step
// summaries, same op slab, and legal.
func TestRecycledSlabsMatchFresh(t *testing.T) {
	scheds := []schedule.Scheduler{rcp.Scheduler{}, lpfs.Scheduler{}}
	type point struct {
		m *ir.Module
		g *dag.Graph
		k int
	}
	var points []point
	for seed, ops := range []int{300, 40, 1200, 7, 600} {
		m := verify.RandomLeaf(rand.New(rand.NewSource(int64(seed))), verify.GenOptions{Ops: ops, Qubits: 10})
		g, err := dag.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 4} {
			points = append(points, point{m, g, k})
		}
	}
	for _, sc := range scheds {
		fresh := make([]*schedule.Schedule, len(points))
		for i, p := range points {
			s, err := sc.Schedule(p.m, p.g, p.k, 0)
			if err != nil {
				t.Fatal(err)
			}
			fresh[i] = s
		}
		for round := 0; round < 3; round++ {
			for i, p := range points {
				s, err := sc.Schedule(p.m, p.g, p.k, 0)
				if err != nil {
					t.Fatal(err)
				}
				want := fresh[i]
				if verify.ScheduleDigest(s) != verify.ScheduleDigest(want) ||
					!slices.Equal(s.Steps, want.Steps) || !slices.Equal(s.Ops(), want.Ops()) {
					t.Fatalf("%s point %d round %d: recycled schedule differs from a fresh one", sc.Name(), i, round)
				}
				if err := s.Validate(p.g); err != nil {
					t.Fatalf("%s point %d round %d: %v", sc.Name(), i, round, err)
				}
				s.Release()
			}
		}
	}
}
