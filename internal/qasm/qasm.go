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

// Writer streams QASM-HL text: a qubit declaration block, then one
// instruction per line. It is the one writer of the instruction syntax
// (Parse reads it back) and allocates nothing per instruction. Writes
// are buffered and their first error sticks: every later call returns
// it, and Flush delivers the buffer.
type Writer struct {
	bw  *bufio.Writer
	num []byte // an angle's text, reused
}

// NewWriter returns a Writer buffering onto w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w), num: make([]byte, 0, 32)}
}

// Declare writes the declaration line of one qubit.
func (w *Writer) Declare(name string) error {
	w.bw.WriteString("qubit ")
	w.bw.WriteString(name)
	return w.bw.WriteByte('\n')
}

// Inst writes one instruction: op applied to qubits, with angle as the
// last operand when op is a rotation.
func (w *Writer) Inst(op Opcode, angle float64, qubits []string) error {
	w.bw.WriteString(op.String())
	w.bw.WriteByte('(')
	for i, q := range qubits {
		if i > 0 {
			w.bw.WriteByte(',')
		}
		w.bw.WriteString(q)
	}
	if op.IsRotation() {
		if len(qubits) > 0 {
			w.bw.WriteByte(',')
		}
		w.num = strconv.AppendFloat(w.num[:0], angle, 'g', -1, 64)
		w.bw.Write(w.num)
	}
	_, err := w.bw.WriteString(")\n")
	return err
}

// Flush writes out what is buffered.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Parse reads a QASM-HL stream produced by a Writer. It tolerates blank lines
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
