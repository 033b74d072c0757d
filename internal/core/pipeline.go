// Package core is the public face of the toolflow: it wires the front
// end (parser, sema, lower), the mid-end passes (decompose, flatten) and
// the back end (fine-grained RCP/LPFS scheduling, hierarchical coarse
// scheduling, communication analysis) into the paper's complete
// compile-and-evaluate flow, and exposes the experiment drivers behind
// every table and figure (see experiments.go).
package core

import (
	"fmt"

	"github.com/scaffold-go/multisimd/internal/ast"
	"github.com/scaffold-go/multisimd/internal/decompose"
	"github.com/scaffold-go/multisimd/internal/flatten"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/lower"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/parser"
	"github.com/scaffold-go/multisimd/internal/reuse"
	"github.com/scaffold-go/multisimd/internal/sema"
)

// PipelineOptions configures compilation from Scaffold-lite source to a
// scheduled-ready IR program.
type PipelineOptions struct {
	// Entry is the entry module name; empty means "main".
	Entry string

	// SkipDecompose leaves wide gates (Toffoli, rotations) in place.
	SkipDecompose bool
	// Epsilon is the rotation decomposition accuracy (0 = 1e-10).
	Epsilon float64

	// SkipFlatten disables the FTh inlining pass.
	SkipFlatten bool
	// FTh is the flattening threshold in gates (0 = paper default 2M).
	FTh int64

	// AncillaReuse runs the ancilla-recycling pass over every fully
	// materialized leaf after flattening, recovering the paper's
	// maximal-ancilla-reuse footprint (Table 1's Q definition) on the
	// flat form. Requires the clean-ancilla convention (see package
	// reuse).
	AncillaReuse bool

	// Obs, when non-nil, traces each compilation phase (parse, sema,
	// lower, decompose, flatten, ancilla-reuse) as a span under the
	// "pipeline" category. Nil disables tracing for free.
	Obs *obs.Observer
}

func (o PipelineOptions) entry() string {
	if o.Entry == "" {
		return "main"
	}
	return o.Entry
}

// Frontend parses, checks and lowers source into IR without running any
// mid-end pass.
func Frontend(src string, opts PipelineOptions) (*ir.Program, error) {
	tr := opts.Obs.T()
	psp := tr.Span("pipeline", "parse")
	prog, err := parser.Parse(src)
	psp.End()
	if err != nil {
		return nil, err
	}
	return frontendAST(prog, opts)
}

// frontendAST checks and lowers an already parsed program.
func frontendAST(prog *ast.Program, opts PipelineOptions) (*ir.Program, error) {
	tr := opts.Obs.T()
	ssp := tr.Span("pipeline", "sema")
	err := sema.Check(prog)
	ssp.End()
	if err != nil {
		return nil, err
	}
	lsp := tr.Span("pipeline", "lower")
	p, err := lower.Lower(prog, opts.entry(), lower.Options{})
	lsp.End()
	return p, err
}

// Build runs the full compilation pipeline: front end, gate
// decomposition, and FTh flattening.
func Build(src string, opts PipelineOptions) (*ir.Program, error) {
	p, err := Frontend(src, opts)
	if err != nil {
		return nil, err
	}
	return midend(p, opts)
}

// midend runs the post-frontend passes on a lowered program.
func midend(p *ir.Program, opts PipelineOptions) (*ir.Program, error) {
	tr := opts.Obs.T()
	if !opts.SkipDecompose {
		sp := tr.Span("pipeline", "decompose")
		_, err := decompose.Program(p, decompose.Options{Epsilon: opts.Epsilon})
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	if !opts.SkipFlatten {
		sp := tr.Span("pipeline", "flatten")
		st, err := flatten.Program(p, flatten.Options{Threshold: opts.FTh})
		if st != nil {
			sp.SetInt("inlined_call_ops", int64(st.InlinedCallOps))
		}
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	if opts.AncillaReuse {
		sp := tr.Span("pipeline", "ancilla-reuse")
		err := reuseLeaves(p)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	// One check covers what every pass above produced; lower already
	// rejected malformed input.
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: mid-end produced an invalid program: %w", err)
	}
	return p, nil
}

// reuseLeaves applies ancilla recycling to each reachable leaf whose
// expanded body repeats no op; symbolic leaves are left alone. Each
// leaf is recycled on its materialized copy, which then replaces it in
// the program: a leaf marked over it keeps expanding the body it was
// marked over, as if that body had been copied in.
func reuseLeaves(p *ir.Program) error {
	names, err := p.Topo()
	if err != nil {
		return err
	}
	for _, name := range names {
		m := p.Modules[name]
		if !m.IsLeaf() || !m.IsMaterialized() {
			continue
		}
		flat, err := m.Materialize(0)
		if err != nil {
			return err
		}
		if _, err := reuse.Leaf(flat); err != nil {
			return fmt.Errorf("core: ancilla reuse on %s: %w", name, err)
		}
		p.Add(flat)
	}
	return nil
}

// BuildSources combines several source fragments (module libraries plus
// a main) and builds them as one program. Each fragment parses
// separately so diagnostics carry line numbers relative to the fragment
// they occur in (a naive concatenation would shift every fragment after
// the first), prefixed with the 1-based fragment index.
func BuildSources(opts PipelineOptions, srcs ...string) (*ir.Program, error) {
	merged := &ast.Program{}
	psp := opts.Obs.T().Span("pipeline", "parse")
	for i, s := range srcs {
		frag, err := parser.Parse(s)
		if err != nil {
			psp.End()
			return nil, fmt.Errorf("core: fragment %d: %w", i+1, err)
		}
		merged.Modules = append(merged.Modules, frag.Modules...)
	}
	psp.End()
	p, err := frontendAST(merged, opts)
	if err != nil {
		return nil, err
	}
	return midend(p, opts)
}

// MustBuild is a test/example helper that panics on compile errors.
func MustBuild(src string, opts PipelineOptions) *ir.Program {
	p, err := Build(src, opts)
	if err != nil {
		panic(fmt.Sprintf("core.MustBuild: %v", err))
	}
	return p
}
