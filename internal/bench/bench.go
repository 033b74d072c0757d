// Package bench generates the paper's eight large-scale quantum
// benchmarks (§3.3) as Scaffold-lite source: Grover's Search (GS),
// Binary Welded Tree (BWT), Ground State Estimation (GSE), Triangle
// Finding (TFP), Boolean Formula (BF), Class Number (CN), SHA-1, and
// Shor's Factoring. Each generator is parameterized exactly as the paper
// parameterizes it and produces modular circuits whose structure —
// CTQG-serialized arithmetic in BF/CN/SHA-1, rotation-heavy QFT in
// Shor's, pinned registers in GSE — drives the scheduling behavior the
// evaluation reproduces.
//
// The paper's parameter settings explode to 10^7–10^12 gates, which the
// resource estimator handles symbolically; Small() presets shrink each
// benchmark to a size whose leaves can be materialized and scheduled in
// tests and benches while preserving the module structure (see DESIGN.md
// substitutions).
package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"github.com/scaffold-go/multisimd/internal/core"
)

// Benchmark bundles a generated program with its identity and the
// pipeline options the paper uses for it (e.g. SHA-1's 3M FTh).
type Benchmark struct {
	Name     string
	Params   string
	Source   string
	Pipeline core.PipelineOptions
}

// groverIterations returns round(π/4·√N) for an n-qubit search space,
// clamped to 2^40 so paper-scale parameterizations stay inside int64
// resource arithmetic.
func groverIterations(n int) int64 {
	f := math.Round(math.Pi / 4 * math.Pow(2, float64(n)/2))
	if !(f >= 1) {
		return 1
	}
	if f > float64(int64(1)<<40) {
		return 1 << 40
	}
	return int64(f)
}

// groverIterationsCapped additionally clamps to the given bound.
func groverIterationsCapped(n int, cap int64) int64 {
	r := groverIterations(n)
	if r > cap {
		return cap
	}
	return r
}

// hWall emits H on every qubit of reg[n].
func hWall(sb *strings.Builder, reg string, n int) {
	fmt.Fprintf(sb, "  for (i = 0; i < %d; i++) {\n    H(%s[i]);\n  }\n", n, reg)
}

// xWall emits X on every qubit of reg[n].
func xWall(sb *strings.Builder, reg string, n int) {
	fmt.Fprintf(sb, "  for (i = 0; i < %d; i++) {\n    X(%s[i]);\n  }\n", n, reg)
}

// All returns the eight benchmarks at the paper's parameterizations
// (Fig. 6/7 variants: SHA-1 at n=128 appears in the speedup figures,
// n=448 in Fig. 5 and Table 1 — this set uses the Table 1 settings).
func All() []Benchmark {
	return []Benchmark{
		BF(2, 2),
		BWT(300, 3000),
		CN(6),
		Grovers(40),
		GSE(10),
		SHA1(448),
		Shors(512),
		TFP(5),
	}
}

// AllSmall returns structurally faithful scaled-down instances whose
// leaves materialize and schedule quickly (used by tests and the bench
// harness; see DESIGN.md).
func AllSmall() []Benchmark {
	return []Benchmark{
		BFSized(2, 2, 3),
		BWT(8, 12),
		CNSized(2, 4, 3),
		GroversSized(6, 4),
		GSESized(2, 3, 4),
		SHA1Sized(6, 8, 8, 2),
		ShorsSized(4, 8),
		TFPSized(4, 2),
	}
}

// Extended returns the workload-diversity benchmarks beyond the
// paper's eight, at sizes whose leaves materialize and schedule quickly:
// QAOA's shared-angle SIMD walls and QFT/QPE's all-distinct-angle
// cascades bracket the Table 2 scheduling spectrum from both ends
// (ROADMAP item 3). They ride the same baseline/report machinery as
// AllSmall — see Gated.
func Extended() []Benchmark {
	return []Benchmark{
		QAOA(8, 2),
		QFT(8),
		QPE(6),
	}
}

// gated is the registry behind Gated and ByName, generated once: every
// request that names a benchmark would otherwise regenerate the Scaffold
// source of all of them.
var gated = sync.OnceValue(func() []Benchmark {
	return append(AllSmall(), Extended()...)
})

// Gated returns every benchmark the perf/report regression gates cover:
// the paper's eight small presets plus the extended workloads. The slice
// is the caller's own copy.
func Gated() []Benchmark {
	return slices.Clone(gated())
}

// ByName returns the small-preset or extended benchmark with the given
// name — the lookup behind qsched -bench and the service's
// {"bench": ...} requests.
func ByName(name string) (Benchmark, bool) {
	for _, b := range gated() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}
