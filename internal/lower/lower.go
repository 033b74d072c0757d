// Package lower translates Scaffold-lite ASTs into the hierarchical IR.
//
// Control flow is fully classical (paper §3.1), so lowering resolves it:
// if/else evaluates its condition at compile time and lowers one branch;
// for loops either unroll, or — when the body does not reference the loop
// variable — collapse. A collapsed loop whose body is a single operation
// becomes that operation with a Count multiplier; a multi-op body is
// outlined into a synthetic module invoked with Count = trip count. This
// preserves (AB)^n semantics exactly while keeping paper-scale programs
// (10^7–10^12 gates) representable without materializing them.
package lower

import (
	"fmt"
	"math"
	"sort"

	"github.com/scaffold-go/multisimd/internal/ast"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/scaffold"
)

// Options configures lowering.
type Options struct {
	// UnrollLimit is the largest trip count of a loop-variable-independent
	// loop that is unrolled inline rather than collapsed. Zero means the
	// default of 32.
	UnrollLimit int64
	// MaxUnroll bounds the trip count of loops that must unroll because
	// their bodies index by the loop variable. Zero means the default of
	// 1 << 22.
	MaxUnroll int64
}

func (o Options) unrollLimit() int64 {
	if o.UnrollLimit == 0 {
		return 32
	}
	return o.UnrollLimit
}

func (o Options) maxUnroll() int64 {
	if o.MaxUnroll == 0 {
		return 1 << 22
	}
	return o.MaxUnroll
}

// Lower converts a checked AST into an IR program rooted at entry.
func Lower(prog *ast.Program, entry string, opts Options) (*ir.Program, error) {
	l := &lowerer{
		opts: opts,
		mods: map[string]*ast.Module{},
		out:  ir.NewProgram(entry),
	}
	for _, m := range prog.Modules {
		l.mods[m.Name] = m
	}
	for _, m := range prog.Modules {
		im, err := l.lowerModule(m)
		if err != nil {
			return nil, err
		}
		l.out.Add(im)
	}
	if l.out.Module(entry) == nil {
		return nil, fmt.Errorf("lower: entry module %q not defined", entry)
	}
	if err := l.out.Validate(); err != nil {
		return nil, err
	}
	return l.out, nil
}

type lowerer struct {
	opts Options
	mods map[string]*ast.Module
	out  *ir.Program
	syn  int // synthetic module counter
}

// regBinding maps a source register to its slot range; classical
// registers have Quantum == false and occupy no slots.
type regBinding struct {
	rng     ir.Range
	quantum bool
}

type modScope struct {
	m    *ir.Module
	regs map[string]regBinding
	vars map[string]int64
	// localCache hoists locals declared inside loops: the same declaration
	// reuses its slots across iterations (ancilla reuse, matching the
	// paper's sequential-reuse model for Q).
	localCache map[string]ir.Range
}

func (l *lowerer) lowerModule(m *ast.Module) (*ir.Module, error) {
	var params []ir.Reg
	regs := map[string]regBinding{}
	off := 0
	for _, p := range m.Params {
		if p.Classical {
			regs[p.Name] = regBinding{quantum: false}
			continue
		}
		params = append(params, ir.Reg{Name: p.Name, Size: p.Size})
		regs[p.Name] = regBinding{rng: ir.Range{Start: off, Len: p.Size}, quantum: true}
		off += p.Size
	}
	im := ir.NewModule(m.Name, params, nil)
	sc := &modScope{m: im, regs: regs, vars: map[string]int64{}, localCache: map[string]ir.Range{}}
	if err := l.lowerBlock(sc, m.Body); err != nil {
		return nil, err
	}
	return im, nil
}

func (l *lowerer) lowerBlock(sc *modScope, b *ast.Block) error {
	shadowed := map[string]*regBinding{}
	declared := []string{}
	defer func() {
		for _, name := range declared {
			if prev := shadowed[name]; prev != nil {
				sc.regs[name] = *prev
			} else {
				delete(sc.regs, name)
			}
		}
	}()
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *ast.DeclStmt:
			if err := l.lowerDecl(sc, st, shadowed, &declared); err != nil {
				return err
			}
		case *ast.GateStmt:
			if err := l.lowerGate(sc, st); err != nil {
				return err
			}
		case *ast.CallStmt:
			if err := l.lowerCall(sc, st); err != nil {
				return err
			}
		case *ast.ForStmt:
			if err := l.lowerFor(sc, st); err != nil {
				return err
			}
		case *ast.IfStmt:
			taken, err := evalCond(sc.vars, st.Cond)
			if err != nil {
				return err
			}
			branch := st.Then
			if !taken {
				branch = st.Else
			}
			if branch != nil {
				if err := l.lowerBlock(sc, branch); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("lower: unknown statement %T", s)
		}
	}
	return nil
}

func (l *lowerer) lowerDecl(sc *modScope, st *ast.DeclStmt, shadowed map[string]*regBinding, declared *[]string) error {
	if prev, ok := sc.regs[st.Name]; ok {
		p := prev
		shadowed[st.Name] = &p
	}
	*declared = append(*declared, st.Name)
	if st.Classical {
		sc.regs[st.Name] = regBinding{quantum: false}
		return nil
	}
	size := int64(1)
	if st.Size != nil {
		v, err := evalInt(sc.vars, st.Size)
		if err != nil {
			return err
		}
		size = v
	}
	if size <= 0 {
		return fmt.Errorf("lower: %s: register %q has non-positive size %d", st.Pos, st.Name, size)
	}
	// Hoist loop-body locals: the same declaration site reuses its slots
	// across iterations. Key on name; require a stable size.
	if rng, ok := sc.localCache[st.Name]; ok {
		if rng.Len != int(size) {
			return fmt.Errorf("lower: %s: register %q redeclared with size %d (was %d) across iterations",
				st.Pos, st.Name, size, rng.Len)
		}
		sc.regs[st.Name] = regBinding{rng: rng, quantum: true}
		return nil
	}
	rng := sc.m.AddLocal(st.Name, int(size))
	sc.localCache[st.Name] = rng
	sc.regs[st.Name] = regBinding{rng: rng, quantum: true}
	return nil
}

func (l *lowerer) lowerGate(sc *modScope, st *ast.GateStmt) error {
	op, ok := qasm.ByName(st.Name)
	if !ok {
		return fmt.Errorf("lower: %s: unknown gate %q", st.Pos, st.Name)
	}
	slots := make([]int, 0, len(st.Args))
	for i := range st.Args {
		slot, err := l.resolveSingle(sc, &st.Args[i])
		if err != nil {
			return err
		}
		slots = append(slots, slot)
	}
	angle := 0.0
	if st.Angle != nil {
		v, err := evalAngle(sc.vars, st.Angle)
		if err != nil {
			return err
		}
		angle = v
	}
	sc.m.Ops = append(sc.m.Ops, ir.Op{Kind: ir.GateOp, Gate: op, Angle: angle, Args: slots, Count: 1})
	return nil
}

func (l *lowerer) lowerCall(sc *modScope, st *ast.CallStmt) error {
	callee := l.mods[st.Callee]
	if callee == nil {
		return fmt.Errorf("lower: %s: call to undefined module %q", st.Pos, st.Callee)
	}
	var args []ir.Range
	for i := range st.Args {
		p := callee.Params[i]
		rng, quantum, err := l.resolveRange(sc, &st.Args[i])
		if err != nil {
			return err
		}
		if p.Classical {
			if quantum {
				return fmt.Errorf("lower: %s: quantum register %q bound to classical parameter %q of %s",
					st.Pos, st.Args[i].Name, p.Name, st.Callee)
			}
			continue // classical args carry no slots
		}
		if !quantum {
			return fmt.Errorf("lower: %s: classical register %q bound to quantum parameter %q of %s",
				st.Pos, st.Args[i].Name, p.Name, st.Callee)
		}
		if rng.Len != p.Size {
			return fmt.Errorf("lower: %s: argument %q (%d qubits) does not fit parameter %q[%d] of %s",
				st.Pos, st.Args[i].Name, rng.Len, p.Name, p.Size, st.Callee)
		}
		args = append(args, rng)
	}
	sc.m.Ops = append(sc.m.Ops, ir.Op{Kind: ir.CallOp, Callee: st.Callee, CallArgs: args, Count: 1})
	return nil
}

// resolveSingle resolves a gate operand to one slot.
func (l *lowerer) resolveSingle(sc *modScope, q *ast.QubitExpr) (int, error) {
	rng, quantum, err := l.resolveRange(sc, q)
	if err != nil {
		return 0, err
	}
	if !quantum {
		return 0, fmt.Errorf("lower: %s: classical register %q used as gate operand", q.Pos, q.Name)
	}
	if rng.Len != 1 {
		return 0, fmt.Errorf("lower: %s: gate operand %q is %d qubits wide; gates take single qubits", q.Pos, q.Name, rng.Len)
	}
	return rng.Start, nil
}

// resolveRange resolves a qubit reference to a slot range.
func (l *lowerer) resolveRange(sc *modScope, q *ast.QubitExpr) (ir.Range, bool, error) {
	binding, ok := sc.regs[q.Name]
	if !ok {
		return ir.Range{}, false, fmt.Errorf("lower: %s: undeclared register %q", q.Pos, q.Name)
	}
	if !binding.quantum {
		return ir.Range{}, false, nil
	}
	base := binding.rng
	switch {
	case q.IsWhole():
		return base, true, nil
	case q.IsSlice():
		lo, err := evalInt(sc.vars, q.Index)
		if err != nil {
			return ir.Range{}, false, err
		}
		hi, err := evalInt(sc.vars, q.SliceHi)
		if err != nil {
			return ir.Range{}, false, err
		}
		if lo < 0 || hi > int64(base.Len) || lo >= hi {
			return ir.Range{}, false, fmt.Errorf("lower: %s: slice %s[%d:%d] out of range [0,%d)", q.Pos, q.Name, lo, hi, base.Len)
		}
		return ir.Range{Start: base.Start + int(lo), Len: int(hi - lo)}, true, nil
	default:
		idx, err := evalInt(sc.vars, q.Index)
		if err != nil {
			return ir.Range{}, false, err
		}
		if idx < 0 || idx >= int64(base.Len) {
			return ir.Range{}, false, fmt.Errorf("lower: %s: index %s[%d] out of range [0,%d)", q.Pos, q.Name, idx, base.Len)
		}
		return ir.Range{Start: base.Start + int(idx), Len: 1}, true, nil
	}
}

func (l *lowerer) lowerFor(sc *modScope, st *ast.ForStmt) error {
	lo, err := evalInt(sc.vars, st.Lo)
	if err != nil {
		return err
	}
	hi, err := evalInt(sc.vars, st.Hi)
	if err != nil {
		return err
	}
	trip := hi - lo
	if trip <= 0 {
		return nil
	}
	varDep := blockUsesVar(st.Body, st.Var)
	if !varDep && trip > l.opts.unrollLimit() {
		return l.collapseLoop(sc, st, trip)
	}
	if trip > l.opts.maxUnroll() {
		return fmt.Errorf("lower: %s: loop over %q must unroll %d iterations, exceeding limit %d",
			st.Pos, st.Var, trip, l.opts.maxUnroll())
	}
	for v := lo; v < hi; v++ {
		sc.vars[st.Var] = v
		if err := l.lowerBlock(sc, st.Body); err != nil {
			delete(sc.vars, st.Var)
			return err
		}
	}
	delete(sc.vars, st.Var)
	return nil
}

// collapseLoop lowers a loop-variable-independent body once and repeats it
// with a Count multiplier: directly when the body is a single op,
// otherwise via an outlined synthetic module.
func (l *lowerer) collapseLoop(sc *modScope, st *ast.ForStmt, trip int64) error {
	mark := len(sc.m.Ops)
	if err := l.lowerBlock(sc, st.Body); err != nil {
		return err
	}
	body := sc.m.Ops[mark:]
	switch len(body) {
	case 0:
		sc.m.Ops = sc.m.Ops[:mark]
		return nil
	case 1:
		sc.m.Ops[mark].Count = ir.SatMul(sc.m.Ops[mark].EffCount(), trip)
		return nil
	}
	synth, args, err := l.outline(sc.m, body, fmt.Sprintf("%s.loop%d", sc.m.Name, l.syn))
	if err != nil {
		return err
	}
	l.syn++
	l.out.Add(synth)
	sc.m.Ops = sc.m.Ops[:mark]
	sc.m.Ops = append(sc.m.Ops, ir.Op{Kind: ir.CallOp, Callee: synth.Name, CallArgs: args, Count: trip})
	return nil
}

// outline extracts ops (expressed in parent slot space) into a new module
// whose parameters cover exactly the parent slots the ops touch, returning
// the module and the call argument ranges binding it back to the parent.
func (l *lowerer) outline(parent *ir.Module, body []ir.Op, name string) (*ir.Module, []ir.Range, error) {
	used := map[int]bool{}
	for i := range body {
		for _, s := range body[i].Args {
			used[s] = true
		}
		for _, r := range body[i].CallArgs {
			for s := r.Start; s < r.Start+r.Len; s++ {
				used[s] = true
			}
		}
	}
	slots := make([]int, 0, len(used))
	for s := range used {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	slotMap := make(map[int]int, len(slots))
	for i, s := range slots {
		slotMap[s] = i
	}
	// Parameters: one per maximal contiguous parent run.
	var params []ir.Reg
	var args []ir.Range
	for i := 0; i < len(slots); {
		j := i + 1
		for j < len(slots) && slots[j] == slots[j-1]+1 {
			j++
		}
		params = append(params, ir.Reg{Name: fmt.Sprintf("p%d", len(params)), Size: j - i})
		args = append(args, ir.Range{Start: slots[i], Len: j - i})
		i = j
	}
	synth := ir.NewModule(name, params, nil)
	for i := range body {
		op := body[i]
		newArgs := make([]int, len(op.Args))
		for k, s := range op.Args {
			newArgs[k] = slotMap[s]
		}
		op.Args = newArgs
		newRanges := make([]ir.Range, len(op.CallArgs))
		for k, r := range op.CallArgs {
			// Contiguity is preserved: every slot of r is in the used
			// set, so consecutive parent slots map to consecutive
			// synthetic slots.
			newRanges[k] = ir.Range{Start: slotMap[r.Start], Len: r.Len}
		}
		op.CallArgs = newRanges
		synth.Ops = append(synth.Ops, op)
	}
	return synth, args, nil
}

// blockUsesVar reports whether any expression in the block references the
// named loop variable.
func blockUsesVar(b *ast.Block, name string) bool {
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *ast.DeclStmt:
			if st.Size != nil && exprUsesVar(st.Size, name) {
				return true
			}
		case *ast.GateStmt:
			for i := range st.Args {
				if qubitUsesVar(&st.Args[i], name) {
					return true
				}
			}
			if st.Angle != nil && exprUsesVar(st.Angle, name) {
				return true
			}
		case *ast.CallStmt:
			for i := range st.Args {
				if qubitUsesVar(&st.Args[i], name) {
					return true
				}
			}
		case *ast.ForStmt:
			if exprUsesVar(st.Lo, name) || exprUsesVar(st.Hi, name) || blockUsesVar(st.Body, name) {
				return true
			}
		case *ast.IfStmt:
			if exprUsesVar(st.Cond.L, name) || exprUsesVar(st.Cond.R, name) {
				return true
			}
			if blockUsesVar(st.Then, name) {
				return true
			}
			if st.Else != nil && blockUsesVar(st.Else, name) {
				return true
			}
		}
	}
	return false
}

func qubitUsesVar(q *ast.QubitExpr, name string) bool {
	if q.Index != nil && exprUsesVar(q.Index, name) {
		return true
	}
	return q.SliceHi != nil && exprUsesVar(q.SliceHi, name)
}

func exprUsesVar(e ast.Expr, name string) bool {
	switch ex := e.(type) {
	case *ast.VarRef:
		return ex.Name == name
	case *ast.NegExpr:
		return exprUsesVar(ex.E, name)
	case *ast.BinExpr:
		return exprUsesVar(ex.L, name) || exprUsesVar(ex.R, name)
	}
	return false
}

func evalInt(vars map[string]int64, e ast.Expr) (int64, error) {
	switch ex := e.(type) {
	case *ast.IntLit:
		return ex.Value, nil
	case *ast.FloatLit:
		return 0, fmt.Errorf("lower: %s: float literal in integer context", ex.Pos)
	case *ast.VarRef:
		v, ok := vars[ex.Name]
		if !ok {
			return 0, fmt.Errorf("lower: %s: unbound variable %q", ex.Pos, ex.Name)
		}
		return v, nil
	case *ast.NegExpr:
		v, err := evalInt(vars, ex.E)
		return -v, err
	case *ast.BinExpr:
		a, err := evalInt(vars, ex.L)
		if err != nil {
			return 0, err
		}
		b, err := evalInt(vars, ex.R)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case scaffold.Plus:
			return a + b, nil
		case scaffold.Minus:
			return a - b, nil
		case scaffold.Star:
			return a * b, nil
		case scaffold.Slash:
			if b == 0 {
				return 0, fmt.Errorf("lower: %s: division by zero", ex.Pos)
			}
			return a / b, nil
		case scaffold.Percent:
			if b == 0 {
				return 0, fmt.Errorf("lower: %s: modulo by zero", ex.Pos)
			}
			return a % b, nil
		case scaffold.Shl:
			if b < 0 || b > 62 {
				return 0, fmt.Errorf("lower: %s: shift amount %d out of range", ex.Pos, b)
			}
			return a << uint(b), nil
		}
		return 0, fmt.Errorf("lower: %s: unknown operator %s", ex.Pos, ex.Op)
	}
	return 0, fmt.Errorf("lower: unknown expression %T", e)
}

func evalAngle(vars map[string]int64, e ast.Expr) (float64, error) {
	switch ex := e.(type) {
	case *ast.IntLit:
		return float64(ex.Value), nil
	case *ast.FloatLit:
		return ex.Value, nil
	case *ast.VarRef:
		v, ok := vars[ex.Name]
		if !ok {
			return 0, fmt.Errorf("lower: %s: unbound variable %q", ex.Pos, ex.Name)
		}
		return float64(v), nil
	case *ast.NegExpr:
		v, err := evalAngle(vars, ex.E)
		return -v, err
	case *ast.BinExpr:
		v, err := evalAngleBin(vars, ex)
		if err == nil && (math.IsInf(v, 0) || math.IsNaN(v)) {
			// A non-finite angle names no rotation; decomposition would
			// silently drop the gate.
			return 0, fmt.Errorf("lower: %s: angle overflows to %v", ex.Pos, v)
		}
		return v, err
	}
	return 0, fmt.Errorf("lower: unknown angle expression %T", e)
}

// evalAngleBin folds one binary angle expression; evalAngle rejects a
// non-finite result.
func evalAngleBin(vars map[string]int64, ex *ast.BinExpr) (float64, error) {
	a, err := evalAngle(vars, ex.L)
	if err != nil {
		return 0, err
	}
	b, err := evalAngle(vars, ex.R)
	if err != nil {
		return 0, err
	}
	switch ex.Op {
	case scaffold.Plus:
		return a + b, nil
	case scaffold.Minus:
		return a - b, nil
	case scaffold.Star:
		return a * b, nil
	case scaffold.Slash:
		if b == 0 {
			return 0, fmt.Errorf("lower: %s: division by zero in angle", ex.Pos)
		}
		return a / b, nil
	case scaffold.Percent, scaffold.Shl:
		ai, bi := int64(a), int64(b)
		if ex.Op == scaffold.Percent {
			if bi == 0 {
				return 0, fmt.Errorf("lower: %s: modulo by zero in angle", ex.Pos)
			}
			return float64(ai % bi), nil
		}
		if bi < 0 || bi > 62 {
			return 0, fmt.Errorf("lower: %s: shift amount %d out of range", ex.Pos, bi)
		}
		return float64(ai << uint(bi)), nil
	}
	return 0, fmt.Errorf("lower: %s: unknown operator %s", ex.Pos, ex.Op)
}

func evalCond(vars map[string]int64, c ast.Cond) (bool, error) {
	a, err := evalInt(vars, c.L)
	if err != nil {
		return false, err
	}
	b, err := evalInt(vars, c.R)
	if err != nil {
		return false, err
	}
	switch c.Op {
	case scaffold.Lt:
		return a < b, nil
	case scaffold.Le:
		return a <= b, nil
	case scaffold.Gt:
		return a > b, nil
	case scaffold.Ge:
		return a >= b, nil
	case scaffold.EqEq:
		return a == b, nil
	case scaffold.NotEq:
		return a != b, nil
	}
	return false, fmt.Errorf("lower: %s: unknown comparison %s", c.Pos, c.Op)
}
