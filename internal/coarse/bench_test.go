package coarse_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/scaffold-go/multisimd/internal/coarse"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

// benchModule builds a seeded call-heavy non-leaf: ops cycle between
// stray gates and calls to a handful of callees with multi-width dims,
// over overlapping slot ranges so the dependency graph has real chains.
func benchModule(nOps int) (*ir.Module, func(string) (coarse.Dims, error)) {
	rng := rand.New(rand.NewSource(7))
	m := ir.NewModule("bench", nil, []ir.Reg{{Name: "q", Size: 32}})
	dims := map[string]coarse.Dims{
		"f0": {Widths: []int{1, 2}, Lengths: []int64{40, 24}},
		"f1": {Widths: []int{1, 2, 4}, Lengths: []int64{100, 60, 36}},
		"f2": {Widths: []int{1}, Lengths: []int64{15}},
	}
	for i := 0; i < nOps; i++ {
		switch rng.Intn(4) {
		case 0:
			m.Gate(qasm.H, rng.Intn(32))
		default:
			callee := fmt.Sprintf("f%d", rng.Intn(3))
			start := rng.Intn(28)
			m.Call(callee, ir.Range{Start: start, Len: 4})
		}
	}
	return m, func(callee string) (coarse.Dims, error) { return dims[callee], nil }
}

// BenchmarkCoarseCompose measures coarse scheduling of one call-heavy
// non-leaf module — the compose phase of the hierarchical engine.
func BenchmarkCoarseCompose(b *testing.B) {
	m, dims := benchModule(400)
	opts := coarse.Options{K: 8, Cost: coarse.WithComm, Dims: dims}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coarse.Schedule(m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoarseLengths measures what the engine's composition of one
// non-leaf costs per cost model: the same module characterized at
// every blackbox width of a k=8 machine through one shared plan.
func BenchmarkCoarseLengths(b *testing.B) {
	m, dims := benchModule(400)
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coarse.Lengths(m, coarse.WithComm, dims, widths, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}
