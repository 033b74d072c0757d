// Package resource implements the paper's resource-estimation analyses
// (§3.1.1, §5.3): hierarchical gate counts that never materialize the
// flat circuit (so 10^12-gate benchmarks remain analyzable), the module
// gate-count histogram behind Fig. 5, and the minimum qubit count Q of
// Table 1 (sequential execution with maximal ancilla reuse).
package resource

import (
	"fmt"
	"math"
	"sort"

	"github.com/scaffold-go/multisimd/internal/ir"
)

// Estimator memoizes per-module analyses over one program.
type Estimator struct {
	prog   *ir.Program
	gates  map[string]int64
	peak   map[string]int64
	topo   []string
	topoOK bool
}

// New builds an estimator for the program. The program's call graph must
// be acyclic (guaranteed by ir.Validate / sema).
func New(prog *ir.Program) (*Estimator, error) {
	topo, err := prog.Topo()
	if err != nil {
		return nil, err
	}
	return &Estimator{
		prog:  prog,
		gates: make(map[string]int64, len(topo)),
		peak:  make(map[string]int64, len(topo)),
		topo:  topo,
	}, nil
}

// saturating add/mul guard against overflow on absurd parameterizations.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// Gates returns the total primitive-and-wide gate count of the named
// module, fully expanded through calls and Count multipliers.
func (e *Estimator) Gates(name string) (int64, error) {
	if n, ok := e.gates[name]; ok {
		return n, nil
	}
	m := e.prog.Module(name)
	if m == nil {
		return 0, fmt.Errorf("resource: missing module %q", name)
	}
	// Bottom-up over the memo: callees of anything in topo order come
	// first, so recursion depth is bounded by call-graph depth.
	var total int64
	for i := range m.Ops {
		op := &m.Ops[i]
		switch op.Kind {
		case ir.GateOp:
			total = satAdd(total, op.EffCount())
		case ir.CallOp:
			sub, err := e.Gates(op.Callee)
			if err != nil {
				return 0, err
			}
			total = satAdd(total, satMul(sub, op.EffCount()))
		}
	}
	e.gates[name] = total
	return total, nil
}

// TotalGates returns the gate count of the whole program (entry module).
func (e *Estimator) TotalGates() (int64, error) { return e.Gates(e.prog.Entry) }

// MinQubits returns Q, the paper's Table 1 metric: the minimum number of
// qubits needed to run the benchmark sequentially with maximal reuse of
// ancilla across functions. Under stack discipline, a module's footprint
// is its own locals plus the deepest callee footprint live at any time
// (calls are sequential, so callee ancillae reuse the same space), and the
// program's Q adds the entry module's parameter qubits.
func (e *Estimator) MinQubits() (int64, error) {
	entry := e.prog.EntryModule()
	if entry == nil {
		return 0, fmt.Errorf("resource: missing entry module %q", e.prog.Entry)
	}
	peak, err := e.peakLocals(e.prog.Entry)
	if err != nil {
		return 0, err
	}
	return satAdd(int64(entry.ParamSlots()), peak), nil
}

func (e *Estimator) peakLocals(name string) (int64, error) {
	if p, ok := e.peak[name]; ok {
		return p, nil
	}
	m := e.prog.Module(name)
	if m == nil {
		return 0, fmt.Errorf("resource: missing module %q", name)
	}
	var deepest int64
	// A marked leaf's locals already hold its calls' ancillae (flatten
	// gives them fresh slots), so its footprint stops there.
	if !m.IsLeaf() {
		for _, callee := range m.Callees() {
			p, err := e.peakLocals(callee)
			if err != nil {
				return 0, err
			}
			if p > deepest {
				deepest = p
			}
		}
	}
	p := satAdd(int64(m.LocalSlots()), deepest)
	e.peak[name] = p
	return p, nil
}

// ModuleGates returns each reachable module's expanded gate count,
// in bottom-up topological order.
func (e *Estimator) ModuleGates() (map[string]int64, error) {
	out := make(map[string]int64, len(e.topo))
	for _, name := range e.topo {
		n, err := e.Gates(name)
		if err != nil {
			return nil, err
		}
		out[name] = n
	}
	return out, nil
}

// Reachable returns the names of modules reachable from the entry, in
// bottom-up topological order.
func (e *Estimator) Reachable() []string { return append([]string(nil), e.topo...) }

// Bucket is one histogram bin of Fig. 5.
type Bucket struct {
	Label string
	Lo    int64 // inclusive
	Hi    int64 // exclusive; math.MaxInt64 for the open top bucket
}

// Fig5Buckets reproduces the paper's gate-count ranges.
var Fig5Buckets = []Bucket{
	{Label: "0 - 1k", Lo: 0, Hi: 1_000},
	{Label: "1k - 5k", Lo: 1_000, Hi: 5_000},
	{Label: "5k - 10k", Lo: 5_000, Hi: 10_000},
	{Label: "10k - 50k", Lo: 10_000, Hi: 50_000},
	{Label: "50k - 100k", Lo: 50_000, Hi: 100_000},
	{Label: "100k - 150k", Lo: 100_000, Hi: 150_000},
	{Label: "150k - 1M", Lo: 150_000, Hi: 1_000_000},
	{Label: "1M - 2M", Lo: 1_000_000, Hi: 2_000_000},
	{Label: "2M - 8M", Lo: 2_000_000, Hi: 8_000_000},
	{Label: "8M - 20M", Lo: 8_000_000, Hi: 20_000_000},
	{Label: ">20M", Lo: 20_000_000, Hi: math.MaxInt64},
}

// Histogram reports, for each Fig. 5 bucket, the percentage of reachable
// modules whose expanded gate count falls in the bucket.
func (e *Estimator) Histogram() ([]float64, error) {
	counts := make([]int, len(Fig5Buckets))
	gates, err := e.ModuleGates()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, n := range gates {
		for bi, b := range Fig5Buckets {
			if n >= b.Lo && n < b.Hi {
				counts[bi]++
				break
			}
		}
		total++
	}
	pct := make([]float64, len(Fig5Buckets))
	if total == 0 {
		return pct, nil
	}
	for i, c := range counts {
		pct[i] = 100 * float64(c) / float64(total)
	}
	return pct, nil
}

// FlattenableFraction returns the percentage of reachable modules whose
// gate count is at most fth — the quantity the paper uses to choose the
// flattening threshold ("80% or more of the modules" at FTh = 2M).
func (e *Estimator) FlattenableFraction(fth int64) (float64, error) {
	gates, err := e.ModuleGates()
	if err != nil {
		return 0, err
	}
	if len(gates) == 0 {
		return 0, nil
	}
	n := 0
	for _, g := range gates {
		if g <= fth {
			n++
		}
	}
	return 100 * float64(n) / float64(len(gates)), nil
}

// SortedModuleGates returns (name, gates) pairs sorted by descending gate
// count, for reporting.
func (e *Estimator) SortedModuleGates() ([]ModuleCount, error) {
	gates, err := e.ModuleGates()
	if err != nil {
		return nil, err
	}
	out := make([]ModuleCount, 0, len(gates))
	for name, n := range gates {
		out = append(out, ModuleCount{Name: name, Gates: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Gates != out[j].Gates {
			return out[i].Gates > out[j].Gates
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// ModuleCount pairs a module with its expanded gate count.
type ModuleCount struct {
	Name  string
	Gates int64
}
