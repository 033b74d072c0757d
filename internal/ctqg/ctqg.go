// Package ctqg is this reproduction's Classical-To-Quantum-Gates
// substitute (paper §3.1): generators for reversible arithmetic and logic
// circuits, emitted as Scaffold-lite source so they flow through the
// complete front end like any hand-written module.
//
// Matching the tool the paper describes, the output is deliberately
// unoptimized and "highly locally serialized" (§5.2): ripple-carry
// adders, Toffoli ladders and copy/uncopy ancilla discipline, exactly the
// structure that gives BF/CN/SHA-1 their low parallelism in Fig. 6.
//
// The arithmetic core is the Cuccaro–Draper–Kutin–Moulton (CDKM)
// ripple-carry adder built from MAJ/UMA blocks; everything else layers on
// top of it. All circuits are verified against the state-vector
// simulator in this package's tests.
package ctqg

import (
	"fmt"
	"strings"
)

// maj emits the CDKM majority block on (x, y, z) = (carry, b, a).
func maj(b *strings.Builder, x, y, z string) {
	fmt.Fprintf(b, "  CNOT(%s, %s);\n", z, y)
	fmt.Fprintf(b, "  CNOT(%s, %s);\n", z, x)
	fmt.Fprintf(b, "  Toffoli(%s, %s, %s);\n", x, y, z)
}

// uma emits the CDKM un-majority-and-add block (2-CNOT form).
func uma(b *strings.Builder, x, y, z string) {
	fmt.Fprintf(b, "  Toffoli(%s, %s, %s);\n", x, y, z)
	fmt.Fprintf(b, "  CNOT(%s, %s);\n", z, x)
	fmt.Fprintf(b, "  CNOT(%s, %s);\n", x, y)
}

// Adder returns a module implementing the CDKM ripple-carry adder:
//
//	module name(qbit a[n], qbit b[n], qbit cin, qbit cout)
//
// computes b = a + b (mod 2^n), cout ^= carry, with a and cin restored
// (cin must be |0> for plain addition).
func Adder(name string, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s(qbit a[%d], qbit b[%d], qbit cin, qbit cout) {\n", name, n, n)
	// MAJ ladder up.
	maj(&sb, "cin", "b[0]", "a[0]")
	for i := 1; i < n; i++ {
		maj(&sb, fmt.Sprintf("a[%d]", i-1), fmt.Sprintf("b[%d]", i), fmt.Sprintf("a[%d]", i))
	}
	fmt.Fprintf(&sb, "  CNOT(a[%d], cout);\n", n-1)
	// UMA ladder down.
	for i := n - 1; i >= 1; i-- {
		uma(&sb, fmt.Sprintf("a[%d]", i-1), fmt.Sprintf("b[%d]", i), fmt.Sprintf("a[%d]", i))
	}
	uma(&sb, "cin", "b[0]", "a[0]")
	sb.WriteString("}\n")
	return sb.String()
}

// CtrlCopy returns a module: b ^= a when ctrl (bitwise Toffoli fan).
func CtrlCopy(name string, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s(qbit ctrl, qbit a[%d], qbit b[%d]) {\n", name, n, n)
	fmt.Fprintf(&sb, "  for (i = 0; i < %d; i++) {\n    Toffoli(ctrl, a[i], b[i]);\n  }\n", n)
	sb.WriteString("}\n")
	return sb.String()
}

// CtrlAdder returns a module computing b += a iff ctrl, using the
// copy–add–uncopy discipline (CTQG's unoptimized style): a is copied
// into a zeroed ancilla register under the control, added, and uncopied.
//
//	module name(qbit ctrl, qbit a[n], qbit b[n], qbit cin, qbit cout)
//
// Requires modules copyName (CtrlCopy) and adderName (Adder) of width n.
// The ancilla register is local and returned clean.
func CtrlAdder(name, copyName, adderName string, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s(qbit ctrl, qbit a[%d], qbit b[%d], qbit cin, qbit cout) {\n", name, n, n)
	fmt.Fprintf(&sb, "  qbit tmp[%d];\n", n)
	fmt.Fprintf(&sb, "  %s(ctrl, a, tmp);\n", copyName)
	fmt.Fprintf(&sb, "  %s(tmp, b, cin, cout);\n", adderName)
	fmt.Fprintf(&sb, "  %s(ctrl, a, tmp);\n", copyName)
	sb.WriteString("}\n")
	return sb.String()
}

// ConstAdd returns a module adding the classical constant c into b:
// b += c (mod 2^n). The constant materializes in a local ancilla via X
// gates, is added with adderName, and is uncomputed.
func ConstAdd(name, adderName string, n int, c uint64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s(qbit b[%d], qbit cin, qbit cout) {\n", name, n)
	fmt.Fprintf(&sb, "  qbit kreg[%d];\n", n)
	setBits := func() {
		for i := 0; i < n; i++ {
			if c&(1<<uint(i)) != 0 {
				fmt.Fprintf(&sb, "  X(kreg[%d]);\n", i)
			}
		}
	}
	setBits()
	fmt.Fprintf(&sb, "  %s(kreg, b, cin, cout);\n", adderName)
	setBits()
	sb.WriteString("}\n")
	return sb.String()
}

// CarryOf returns a module computing flag ^= carry(a + b + cin) while
// preserving a, b and cin: the CDKM MAJ ladder ripples the carry into
// a[n-1], the flag copies it out, and the reversed ladder uncomputes.
//
//	module name(qbit a[n], qbit b[n], qbit cin, qbit flag)
func CarryOf(name string, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s(qbit a[%d], qbit b[%d], qbit cin, qbit flag) {\n", name, n, n)
	maj(&sb, "cin", "b[0]", "a[0]")
	for i := 1; i < n; i++ {
		maj(&sb, fmt.Sprintf("a[%d]", i-1), fmt.Sprintf("b[%d]", i), fmt.Sprintf("a[%d]", i))
	}
	fmt.Fprintf(&sb, "  CNOT(a[%d], flag);\n", n-1)
	for i := n - 1; i >= 1; i-- {
		invMaj(&sb, fmt.Sprintf("a[%d]", i-1), fmt.Sprintf("b[%d]", i), fmt.Sprintf("a[%d]", i))
	}
	invMaj(&sb, "cin", "b[0]", "a[0]")
	sb.WriteString("}\n")
	return sb.String()
}

// invMaj emits the inverse of the MAJ block.
func invMaj(b *strings.Builder, x, y, z string) {
	fmt.Fprintf(b, "  Toffoli(%s, %s, %s);\n", x, y, z)
	fmt.Fprintf(b, "  CNOT(%s, %s);\n", z, x)
	fmt.Fprintf(b, "  CNOT(%s, %s);\n", z, y)
}

// LessThan returns a module computing flag ^= (a < b), unsigned,
// preserving a, b and cin (cin must be |0>). It uses the identity
// carry(~a + b) = 1 ⟺ ~a + b ≥ 2^n ⟺ a < b, conjugating a CarryOf
// module (named carryName, same width) with bitwise complement of a.
//
//	module name(qbit a[n], qbit b[n], qbit cin, qbit flag)
func LessThan(name, carryName string, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s(qbit a[%d], qbit b[%d], qbit cin, qbit flag) {\n", name, n, n)
	fmt.Fprintf(&sb, "  for (i = 0; i < %d; i++) {\n    X(a[i]);\n  }\n", n)
	fmt.Fprintf(&sb, "  %s(a, b, cin, flag);\n", carryName)
	fmt.Fprintf(&sb, "  for (i = 0; i < %d; i++) {\n    X(a[i]);\n  }\n", n)
	sb.WriteString("}\n")
	return sb.String()
}

// MultiCX returns a module: target ^= AND(c[0..n-1]) via a Toffoli
// ladder with n-1 clean local ancillae (n >= 2).
func MultiCX(name string, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s(qbit c[%d], qbit target) {\n", name, n)
	if n == 2 {
		sb.WriteString("  Toffoli(c[0], c[1], target);\n}\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "  qbit anc[%d];\n", n-1)
	fmt.Fprintf(&sb, "  Toffoli(c[0], c[1], anc[0]);\n")
	for i := 2; i < n; i++ {
		fmt.Fprintf(&sb, "  Toffoli(anc[%d], c[%d], anc[%d]);\n", i-2, i, i-1)
	}
	fmt.Fprintf(&sb, "  CNOT(anc[%d], target);\n", n-2)
	for i := n - 1; i >= 2; i-- {
		fmt.Fprintf(&sb, "  Toffoli(anc[%d], c[%d], anc[%d]);\n", i-2, i, i-1)
	}
	fmt.Fprintf(&sb, "  Toffoli(c[0], c[1], anc[0]);\n")
	sb.WriteString("}\n")
	return sb.String()
}

// Multiplier returns a module computing p += a * b over n-bit inputs and
// a 2n-bit product register, by shift-and-add with controlled adders.
//
//	module name(qbit a[n], qbit b[n], qbit p[2n], qbit cin)
//
// Requires ctrlAdderName = CtrlAdder of width n. cin must be |0>.
func Multiplier(name, ctrlAdderName string, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s(qbit a[%d], qbit b[%d], qbit p[%d], qbit cin) {\n", name, n, n, 2*n)
	for i := 0; i < n; i++ {
		// p[i : i+n] += a iff b[i], carry into p[i+n].
		fmt.Fprintf(&sb, "  %s(b[%d], a, p[%d:%d], cin, p[%d]);\n", ctrlAdderName, i, i, i+n, i+n)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// RotL returns a module rotating the register left by r positions
// in place using the triple-reversal swap network (3·n/2 Swap gates),
// matching how CTQG lowers C bit rotations.
func RotL(name string, n, r int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s(qbit x[%d]) {\n", name, n)
	rev := func(lo, hi int) { // reverse x[lo:hi]
		for i, j := lo, hi-1; i < j; i, j = i+1, j-1 {
			fmt.Fprintf(&sb, "  Swap(x[%d], x[%d]);\n", i, j)
		}
	}
	r = ((r % n) + n) % n
	if r != 0 {
		// Left-rotating bit *values* by r means index i gets the old
		// value of index i-r (mod n) when bit i holds weight 2^i.
		rev(0, n)
		rev(0, r)
		rev(r, n)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// ChFunc returns a module computing out ^= Ch(x,y,z) = (x&y)^(~x&z),
// bitwise (SHA-1 rounds 0–19).
func ChFunc(name string, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s(qbit x[%d], qbit y[%d], qbit z[%d], qbit out[%d]) {\n", name, n, n, n, n)
	fmt.Fprintf(&sb, "  for (i = 0; i < %d; i++) {\n", n)
	sb.WriteString("    Toffoli(x[i], y[i], out[i]);\n")
	sb.WriteString("    X(x[i]);\n")
	sb.WriteString("    Toffoli(x[i], z[i], out[i]);\n")
	sb.WriteString("    X(x[i]);\n")
	sb.WriteString("  }\n}\n")
	return sb.String()
}

// MajFunc returns a module computing out ^= Maj(x,y,z) =
// (x&y)^(x&z)^(y&z), bitwise (SHA-1 rounds 40–59).
func MajFunc(name string, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s(qbit x[%d], qbit y[%d], qbit z[%d], qbit out[%d]) {\n", name, n, n, n, n)
	fmt.Fprintf(&sb, "  for (i = 0; i < %d; i++) {\n", n)
	sb.WriteString("    Toffoli(x[i], y[i], out[i]);\n")
	sb.WriteString("    Toffoli(x[i], z[i], out[i]);\n")
	sb.WriteString("    Toffoli(y[i], z[i], out[i]);\n")
	sb.WriteString("  }\n}\n")
	return sb.String()
}

// ParityFunc returns a module computing out ^= x^y^z, bitwise
// (SHA-1 rounds 20–39 and 60–79).
func ParityFunc(name string, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s(qbit x[%d], qbit y[%d], qbit z[%d], qbit out[%d]) {\n", name, n, n, n, n)
	fmt.Fprintf(&sb, "  for (i = 0; i < %d; i++) {\n", n)
	sb.WriteString("    CNOT(x[i], out[i]);\n")
	sb.WriteString("    CNOT(y[i], out[i]);\n")
	sb.WriteString("    CNOT(z[i], out[i]);\n")
	sb.WriteString("  }\n}\n")
	return sb.String()
}
