package qasm

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Inst is one flat QASM-HL instruction: a gate applied to named qubits.
type Inst struct {
	Op     Opcode
	Angle  float64  // meaningful only when Op.IsRotation()
	Qubits []string // operand names, e.g. "a0", "anc[3]"
}

// String renders the instruction in QASM-HL surface syntax.
func (in Inst) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	b.WriteByte('(')
	for i, q := range in.Qubits {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(q)
	}
	if in.Op.IsRotation() {
		if len(in.Qubits) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(in.Angle, 'g', -1, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// Write emits a flat instruction stream, one instruction per line, with a
// leading qubit declaration block. Declared is the set of qubit names.
func Write(w io.Writer, declared []string, insts []Inst) error {
	bw := bufio.NewWriter(w)
	for _, q := range declared {
		if _, err := fmt.Fprintf(bw, "qubit %s\n", q); err != nil {
			return err
		}
	}
	for _, in := range insts {
		if _, err := fmt.Fprintln(bw, in.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads a QASM-HL stream produced by Write. It tolerates blank lines
// and '#' comments.
func Parse(r io.Reader) (declared []string, insts []Inst, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "qubit "); ok {
			declared = append(declared, strings.TrimSpace(rest))
			continue
		}
		in, perr := parseInst(line)
		if perr != nil {
			return nil, nil, fmt.Errorf("qasm: line %d: %w", lineno, perr)
		}
		insts = append(insts, in)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("qasm: %w", err)
	}
	return declared, insts, nil
}

func parseInst(line string) (Inst, error) {
	open := strings.IndexByte(line, '(')
	if open < 0 || !strings.HasSuffix(line, ")") {
		return Inst{}, fmt.Errorf("malformed instruction %q", line)
	}
	name := strings.TrimSpace(line[:open])
	op, ok := ByName(name)
	if !ok {
		return Inst{}, fmt.Errorf("unknown gate %q", name)
	}
	body := line[open+1 : len(line)-1]
	var args []string
	if strings.TrimSpace(body) != "" {
		args = splitArgs(body)
	}
	in := Inst{Op: op}
	want := op.Arity()
	if op.IsRotation() {
		if len(args) != want+1 {
			return Inst{}, fmt.Errorf("%s expects %d qubits and an angle, got %d args", name, want, len(args))
		}
		angle, err := strconv.ParseFloat(strings.TrimSpace(args[len(args)-1]), 64)
		if err != nil {
			return Inst{}, fmt.Errorf("%s: bad angle: %w", name, err)
		}
		if math.IsInf(angle, 0) || math.IsNaN(angle) {
			return Inst{}, fmt.Errorf("%s: angle %v is not finite", name, angle)
		}
		in.Angle = angle
		args = args[:len(args)-1]
	} else if len(args) != want {
		return Inst{}, fmt.Errorf("%s expects %d qubits, got %d", name, want, len(args))
	}
	in.Qubits = make([]string, len(args))
	for i, a := range args {
		in.Qubits[i] = strings.TrimSpace(a)
	}
	return in, nil
}

// splitArgs splits on top-level commas; qubit names may contain brackets
// but never nested parentheses, so a simple depth count over '[' suffices.
func splitArgs(body string) []string {
	var args []string
	depth, start := 0, 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				args = append(args, body[start:i])
				start = i + 1
			}
		}
	}
	return append(args, body[start:])
}
