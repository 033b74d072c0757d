package qasm

import (
	"strings"
	"testing"
)

// FuzzParseQASM asserts the QASM reader never panics and that accepted
// streams round-trip through a Writer.
func FuzzParseQASM(f *testing.F) {
	seeds := []string{
		"",
		"qubit q\nH(q)\n",
		"qubit a\nqubit b\nCNOT(a,b)\nRz(b,0.5)\n",
		"# comment\n\nqubit x[0]\nT(x[0])\n",
		"H(q)\nH q\n",
		"Rz(q)\n",
		"Toffoli(a,b,c)\n",
		"qubit q\nMeasZ(q)\nPrepZ(q)\n",
		"NotAGate(q)\n",
		"CNOT(a,a)\n",
		strings.Repeat("qubit q\n", 100),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		decl, insts, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := write(&sb, decl, insts); err != nil {
			t.Fatalf("write failed on accepted input: %v", err)
		}
		d2, i2, err := Parse(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip rejected: %v\noriginal: %q\nwritten: %q", err, src, sb.String())
		}
		if len(d2) != len(decl) || len(i2) != len(insts) {
			t.Fatalf("round trip changed shape: %d/%d decls, %d/%d insts",
				len(d2), len(decl), len(i2), len(insts))
		}
	})
}
