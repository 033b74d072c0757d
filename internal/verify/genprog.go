package verify

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

// ProgramGenOptions shapes RandomProgram's output. Like GenOptions, the
// zero value is a meaningful default (pinned by
// TestProgramGenOptionsZeroValuePinned): a three-level program — entry,
// one intermediate layer, one leaf layer — of 3 modules per layer with
// up-to-3-way fanout, 32-op leaves and registers up to 3 qubits wide.
// Non-positive values of any count field select its default.
type ProgramGenOptions struct {
	// Depth is the number of call-graph levels below the entry module
	// (default 2, minimum 1). Depth 1 means the entry calls leaves
	// directly; depth 2 inserts one layer of intermediate modules, and
	// so on. Modules at the deepest level are leaves (gates only).
	Depth int
	// ModulesPerLevel is how many modules each level below the entry
	// holds (default 3, minimum 1). Every one of them is reachable from
	// the entry.
	ModulesPerLevel int
	// Fanout bounds the number of extra (beyond those required for
	// reachability) call sites drawn per non-leaf body (default 3,
	// minimum 1).
	Fanout int
	// LeafOps is the number of random gate operations per leaf body
	// (default 32), drawn from the same mix RandomLeaf uses.
	LeafOps int
	// BodyGates is the number of stray coarse-level gates interleaved
	// with the calls in each non-leaf body (default 3). The engine
	// teleports their operands around the call schedule, so they
	// exercise the mixed gate+call path.
	BodyGates int
	// MaxRegSize bounds register widths — parameters, locals and
	// ancillae alike (default 3, minimum 1).
	MaxRegSize int
	// Loops wraps a fraction of call sites and leaf gates in
	// classically-counted repetition (ir.Op.Count) with trip counts in
	// [33, 128] — above lower's default unroll limit of 32, so the
	// Scaffold rendering's for-loops collapse back to the identical
	// Count on re-parse instead of unrolling.
	Loops bool
	// Wide admits three-qubit gates and Swap into the leaf mix (see
	// GenOptions.Wide). Machines with 0 < d < 3 cannot schedule them.
	Wide bool
	// Measure admits PrepZ/MeasZ into the leaf mix, gives leaf ancillae
	// an explicit PrepZ-allocate / MeasZ-free envelope, and appends a
	// measurement wall to the entry module.
	Measure bool
}

func (o ProgramGenOptions) depth() int {
	if o.Depth <= 0 {
		return 2
	}
	return o.Depth
}

func (o ProgramGenOptions) modulesPerLevel() int {
	if o.ModulesPerLevel <= 0 {
		return 3
	}
	return o.ModulesPerLevel
}

func (o ProgramGenOptions) fanout() int {
	if o.Fanout <= 0 {
		return 3
	}
	return o.Fanout
}

func (o ProgramGenOptions) leafOps() int {
	if o.LeafOps <= 0 {
		return 32
	}
	return o.LeafOps
}

func (o ProgramGenOptions) bodyGates() int {
	if o.BodyGates <= 0 {
		return 3
	}
	return o.BodyGates
}

func (o ProgramGenOptions) maxRegSize() int {
	if o.MaxRegSize <= 0 {
		return 3
	}
	return o.MaxRegSize
}

// loopTrip draws a repetition count strictly above lower's default
// unroll limit, so rendered for-loops collapse rather than unroll.
func loopTrip(rng *rand.Rand) int64 { return 33 + int64(rng.Intn(96)) }

// RandomProgram builds a seeded random hierarchical program: a layered
// module call DAG rooted at a parameterless "main", with every module
// reachable from the entry, exact-size whole-register call arguments,
// leaf bodies drawn from the RandomLeaf gate mix, optional ancilla
// allocate/free envelopes, counted loops and measurement placement.
//
// The output is designed to survive the front end exactly:
// ProgramScaffold renders it as Scaffold source whose
// parse → sema → lower pipeline reproduces the identical
// ir.Fingerprint, so one seed exercises the schedulers and the language
// front end on the same program. Determinism: identical (rng stream,
// opts) yield identical programs.
func RandomProgram(rng *rand.Rand, opts ProgramGenOptions) *ir.Program {
	depth := opts.depth()
	perLevel := opts.modulesPerLevel()
	fanout := opts.fanout()
	maxReg := opts.maxRegSize()

	minLeafSlots := 2
	if opts.Wide {
		minLeafSlots = 3
	}

	// Shell phase: fix every module's name and parameter shape first, so
	// callers can bind arguments while bodies are generated top-down.
	// levels[l] holds level l+1's modules (level 0 is the entry).
	type shell struct {
		name   string
		params []ir.Reg
		level  int // 1-based; depth == leaf level
	}
	levels := make([][]*shell, depth)
	for l := 1; l <= depth; l++ {
		mods := make([]*shell, perLevel)
		for i := range mods {
			nParams := 1 + rng.Intn(2)
			params := make([]ir.Reg, nParams)
			total := 0
			for j := range params {
				params[j] = ir.Reg{Name: fmt.Sprintf("p%d", j), Size: 1 + rng.Intn(maxReg)}
				total += params[j].Size
			}
			if l == depth && total < minLeafSlots {
				// Leaves need enough operands for the widest gate in
				// the mix.
				params[nParams-1].Size += minLeafSlots - total
			}
			mods[i] = &shell{name: fmt.Sprintf("sub%d_%d", l, i), params: params, level: l}
		}
		levels[l-1] = mods
	}

	// Reachability phase: every module below level 1 draws one required
	// caller from the level directly above; every level-1 module is
	// required in main. Induction makes the whole DAG reachable.
	required := make(map[string][]*shell) // caller name -> required callees
	for _, s := range levels[0] {
		required["main"] = append(required["main"], s)
	}
	for l := 2; l <= depth; l++ {
		for _, s := range levels[l-1] {
			caller := levels[l-2][rng.Intn(perLevel)]
			required[caller.name] = append(required[caller.name], s)
		}
	}

	p := ir.NewProgram("main")

	// deeper collects candidate callees strictly below a level.
	deeper := func(level int) []*shell {
		var out []*shell
		for l := level + 1; l <= depth; l++ {
			out = append(out, levels[l-1]...)
		}
		return out
	}

	// fillNonLeaf plans calls (binding whole registers of the exact
	// callee parameter sizes, allocating locals when the caller has no
	// free register of that size), sprinkles stray coarse-level gates,
	// and shuffles the body so call/gate placement varies.
	fillNonLeaf := func(m *ir.Module, level int) {
		candidates := deeper(level)
		calls := append([]*shell(nil), required[m.Name]...)
		target := 1 + rng.Intn(fanout)
		for len(calls) < target {
			calls = append(calls, candidates[rng.Intn(len(candidates))])
		}
		for _, callee := range calls {
			args := make([]ir.Range, len(callee.params))
			used := make(map[string]bool, len(callee.params))
			for j, cp := range callee.params {
				name := ""
				for _, r := range append(append([]ir.Reg{}, m.Params...), m.Locals...) {
					if r.Size == cp.Size && !used[r.Name] {
						name = r.Name
						break
					}
				}
				if name == "" {
					name = fmt.Sprintf("a%d", len(m.Locals))
					m.AddLocal(name, cp.Size)
				}
				used[name] = true
				rr, _ := m.RegRange(name)
				args[j] = rr
			}
			count := int64(1)
			if opts.Loops && rng.Intn(4) == 0 {
				count = loopTrip(rng)
			}
			m.CallN(callee.name, count, args...)
		}
		if m.TotalSlots() < 2 {
			m.AddLocal(fmt.Sprintf("a%d", len(m.Locals)), 2-m.TotalSlots())
		}
		appendRandomOps(rng, m, opts.bodyGates(), m.TotalSlots(), false, false)
		rng.Shuffle(len(m.Ops), func(i, j int) { m.Ops[i], m.Ops[j] = m.Ops[j], m.Ops[i] })
	}

	// fillLeaf draws the RandomLeaf mix over the leaf's full slot space,
	// wrapping it in a PrepZ-allocate / MeasZ-free ancilla envelope when
	// the leaf carries an ancilla register.
	fillLeaf := func(m *ir.Module) {
		var anc ir.Range
		if rng.Intn(2) == 0 {
			anc = m.AddLocal("anc", 1+rng.Intn(maxReg))
			for s := anc.Start; s < anc.Start+anc.Len; s++ {
				m.Gate(qasm.PrepZ, s)
			}
		}
		appendRandomOps(rng, m, opts.leafOps(), m.TotalSlots(), opts.Wide, opts.Measure)
		if opts.Loops {
			for i := anc.Len; i < len(m.Ops); i++ {
				if rng.Intn(8) == 0 {
					m.Ops[i].Count = loopTrip(rng)
				}
			}
		}
		if opts.Measure && anc.Len > 0 {
			for s := anc.Start; s < anc.Start+anc.Len; s++ {
				m.Gate(qasm.MeasZ, s)
			}
		}
	}

	main := ir.NewModule("main", nil, nil)
	p.Add(main)
	fillNonLeaf(main, 0)
	if opts.Measure && len(main.Locals) > 0 {
		rr, _ := main.RegRange(main.Locals[0].Name)
		for s := rr.Start; s < rr.Start+rr.Len; s++ {
			main.Gate(qasm.MeasZ, s)
		}
	}
	for l := 1; l <= depth; l++ {
		for _, s := range levels[l-1] {
			m := ir.NewModule(s.name, append([]ir.Reg(nil), s.params...), nil)
			p.Add(m)
			if l == depth {
				fillLeaf(m)
			} else {
				fillNonLeaf(m, l)
			}
		}
	}
	return p
}

// ProgramScaffold renders a hierarchical program as Scaffold source, the
// inverse of the front end: parse + sema + lower of the result
// reproduces the program (identical ir.Fingerprint) provided the
// program stays inside the renderable subset — every call argument is a
// whole caller register whose size exactly matches the callee
// parameter, and every op Count is either 1 or greater than lower's
// unroll limit (counted ops render as for-loops; trips of 2..32 would
// unroll into separate ops on re-parse). RandomProgram emits only this
// subset.
func ProgramScaffold(p *ir.Program) (string, error) {
	var sb strings.Builder
	for idx, name := range p.Order {
		m := p.Modules[name]
		if m == nil {
			return "", fmt.Errorf("verify: program order names missing module %q", name)
		}
		if idx > 0 {
			sb.WriteByte('\n')
		}
		if err := writeModuleScaffold(&sb, p, m); err != nil {
			return "", err
		}
	}
	return sb.String(), nil
}

func writeModuleScaffold(sb *strings.Builder, p *ir.Program, m *ir.Module) error {
	sb.WriteString("module ")
	sb.WriteString(m.Name)
	sb.WriteByte('(')
	for i, r := range m.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		if r.Size == 1 {
			fmt.Fprintf(sb, "qbit %s", r.Name)
		} else {
			fmt.Fprintf(sb, "qbit %s[%d]", r.Name, r.Size)
		}
	}
	sb.WriteString(") {\n")
	for _, r := range m.Locals {
		if r.Size == 1 {
			fmt.Fprintf(sb, "  qbit %s;\n", r.Name)
		} else {
			fmt.Fprintf(sb, "  qbit %s[%d];\n", r.Name, r.Size)
		}
	}

	// regOf resolves a slot range back to the register that spans it
	// exactly — the only call-argument shape the renderer supports.
	regOf := func(rr ir.Range) (string, bool) {
		for _, r := range append(append([]ir.Reg{}, m.Params...), m.Locals...) {
			cand, ok := m.RegRange(r.Name)
			if ok && cand == rr {
				return r.Name, true
			}
		}
		return "", false
	}

	names := m.SlotNames()
	for i := range m.Ops {
		op := &m.Ops[i]
		var stmt string
		switch op.Kind {
		case ir.GateOp:
			var b strings.Builder
			b.WriteString(op.Gate.String())
			b.WriteByte('(')
			for j, s := range op.Args {
				if j > 0 {
					b.WriteString(", ")
				}
				if s < 0 || s >= m.TotalSlots() {
					return fmt.Errorf("verify: module %s op %d: slot %d out of range", m.Name, i, s)
				}
				b.WriteString(names[s])
			}
			if op.Gate.IsRotation() {
				if math.IsNaN(op.Angle) || math.IsInf(op.Angle, 0) {
					return fmt.Errorf("verify: module %s op %d: unrenderable angle %v", m.Name, i, op.Angle)
				}
				b.WriteString(", ")
				b.WriteString(strconv.FormatFloat(op.Angle, 'g', -1, 64))
			}
			b.WriteByte(')')
			stmt = b.String()
		case ir.CallOp:
			if p.Modules[op.Callee] == nil {
				return fmt.Errorf("verify: module %s op %d: missing callee %q", m.Name, i, op.Callee)
			}
			var b strings.Builder
			b.WriteString(op.Callee)
			b.WriteByte('(')
			for j, rr := range op.CallArgs {
				if j > 0 {
					b.WriteString(", ")
				}
				name, ok := regOf(rr)
				if !ok {
					return fmt.Errorf("verify: module %s op %d: call arg %d (%+v) is not a whole register", m.Name, i, j, rr)
				}
				b.WriteString(name)
			}
			b.WriteByte(')')
			stmt = b.String()
		default:
			return fmt.Errorf("verify: module %s op %d: unknown kind %d", m.Name, i, op.Kind)
		}
		if n := op.EffCount(); n > 1 {
			fmt.Fprintf(sb, "  for (i = 0; i < %d; i++) {\n    %s;\n  }\n", n, stmt)
		} else {
			fmt.Fprintf(sb, "  %s;\n", stmt)
		}
	}
	sb.WriteString("}\n")
	return nil
}
