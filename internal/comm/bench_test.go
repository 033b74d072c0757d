package comm_test

import (
	"math/rand"
	"testing"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/verify"
)

func benchSchedule(b *testing.B, ops int) *schedule.Schedule {
	rng := rand.New(rand.NewSource(42))
	m := verify.RandomLeaf(rng, verify.GenOptions{Ops: ops, Qubits: 12})
	g, err := dag.Build(m)
	if err != nil {
		b.Fatal(err)
	}
	s, err := lpfs.Schedule(m, g, lpfs.Options{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAnalyzePooled measures the package-level entry point: a
// sync.Pool checkout plus the dense analysis.
func BenchmarkAnalyzePooled(b *testing.B) {
	s := benchSchedule(b, 2000)
	opts := comm.Options{LocalCapacity: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comm.Analyze(s, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeReused measures a reused Analyzer that records the
// full Result, as verification and profiling do.
func BenchmarkAnalyzeReused(b *testing.B) {
	s := benchSchedule(b, 2000)
	opts := comm.Options{LocalCapacity: -1, EPRBandwidth: 2}
	a := comm.NewAnalyzer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(s, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewMovement measures profiling a schedule's movement once,
// the option-independent half of the engine's analysis.
func BenchmarkNewMovement(b *testing.B) {
	s := benchSchedule(b, 2000)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := comm.NewMovement(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrice measures the engine's per-option half: one profile
// priced under Fig. 8's four scratchpad capacities (none, Q/4, Q/2 and
// unlimited for the schedule's 12 qubits) per op. A warm Price
// allocates nothing.
func BenchmarkPrice(b *testing.B) {
	mv, err := comm.NewMovement(benchSchedule(b, 2000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, c := range [4]int{0, 3, 6, -1} {
			mv.Price(comm.Options{LocalCapacity: c})
		}
	}
}
