package ctqg_test

import (
	"fmt"
	"math/cmplx"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ctqg"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/sim"
)

// initReg emits X gates setting register reg[size] to value v.
func initReg(sb *strings.Builder, reg string, size int, v uint64) {
	for i := 0; i < size; i++ {
		if v&(1<<uint(i)) != 0 {
			fmt.Fprintf(sb, "  X(%s[%d]);\n", reg, i)
		}
	}
}

// runBasis compiles src (front end only — the simulator understands wide
// gates) and runs it from |0...0> with extra ancilla room, requiring the
// result to be a single computational basis state, which it returns
// along with the entry module for register decoding.
func runBasis(t *testing.T, src string, extraAncilla int) (uint64, *ir.Module) {
	t.Helper()
	p, err := core.Frontend(src, core.PipelineOptions{})
	if err != nil {
		t.Fatalf("compile: %v\nsource:\n%s", err, src)
	}
	entry := p.EntryModule()
	n := entry.TotalSlots() + extraAncilla
	st, err := sim.NewState(n)
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	if err := st.RunProgram(p); err != nil {
		t.Fatalf("run: %v", err)
	}
	basis := uint64(0)
	found := false
	for i := uint64(0); i < 1<<uint(n); i++ {
		if m := cmplx.Abs(st.Amplitude(i)); m > 0.5 {
			if found {
				t.Fatalf("state is not a basis state (second peak at %d)", i)
			}
			if m < 0.999999 {
				t.Fatalf("basis amplitude %g too small", m)
			}
			basis, found = i, true
		}
	}
	if !found {
		t.Fatal("no dominant basis state")
	}
	return basis, entry
}

// regVal extracts register reg's value from a basis index.
func regVal(t *testing.T, m *ir.Module, basis uint64, reg string) uint64 {
	t.Helper()
	r, ok := m.RegRange(reg)
	if !ok {
		t.Fatalf("no register %q in %s", reg, m.Name)
	}
	var v uint64
	for i := 0; i < r.Len; i++ {
		if basis&(1<<uint(r.Start+i)) != 0 {
			v |= 1 << uint(i)
		}
	}
	return v
}

func TestAdder(t *testing.T) {
	const n = 4
	for _, tc := range []struct{ a, b uint64 }{
		{0, 0}, {1, 0}, {0, 1}, {3, 5}, {7, 9}, {15, 15}, {8, 8}, {15, 1}, {6, 13},
	} {
		var sb strings.Builder
		sb.WriteString(ctqg.Adder("add4", n))
		sb.WriteString("module main() {\n  qbit a[4];\n  qbit b[4];\n  qbit cin;\n  qbit cout;\n")
		initReg(&sb, "a", n, tc.a)
		initReg(&sb, "b", n, tc.b)
		sb.WriteString("  add4(a, b, cin, cout);\n}\n")
		basis, m := runBasis(t, sb.String(), 0)
		sum := tc.a + tc.b
		if got := regVal(t, m, basis, "b"); got != sum%(1<<n) {
			t.Errorf("a=%d b=%d: sum = %d, want %d", tc.a, tc.b, got, sum%(1<<n))
		}
		if got := regVal(t, m, basis, "a"); got != tc.a {
			t.Errorf("a=%d b=%d: a register clobbered to %d", tc.a, tc.b, got)
		}
		wantCarry := sum >> n
		if got := regVal(t, m, basis, "cout"); got != wantCarry {
			t.Errorf("a=%d b=%d: carry = %d, want %d", tc.a, tc.b, got, wantCarry)
		}
		if got := regVal(t, m, basis, "cin"); got != 0 {
			t.Errorf("a=%d b=%d: cin dirty (%d)", tc.a, tc.b, got)
		}
	}
}

func TestCarryOf(t *testing.T) {
	const n = 3
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 8; b++ {
			var sb strings.Builder
			sb.WriteString(ctqg.CarryOf("carry3", n))
			sb.WriteString("module main() {\n  qbit a[3];\n  qbit b[3];\n  qbit cin;\n  qbit flag;\n")
			initReg(&sb, "a", n, a)
			initReg(&sb, "b", n, b)
			sb.WriteString("  carry3(a, b, cin, flag);\n}\n")
			basis, m := runBasis(t, sb.String(), 0)
			want := (a + b) >> n
			if got := regVal(t, m, basis, "flag"); got != want {
				t.Errorf("a=%d b=%d: carry = %d, want %d", a, b, got, want)
			}
			if got := regVal(t, m, basis, "a"); got != a {
				t.Errorf("a=%d b=%d: a clobbered to %d", a, b, got)
			}
			if got := regVal(t, m, basis, "b"); got != b {
				t.Errorf("a=%d b=%d: b clobbered to %d", a, b, got)
			}
		}
	}
}

func TestLessThan(t *testing.T) {
	const n = 3
	for a := uint64(0); a < 8; a++ {
		for b := uint64(0); b < 8; b++ {
			var sb strings.Builder
			sb.WriteString(ctqg.CarryOf("carry3", n))
			sb.WriteString(ctqg.LessThan("lt3", "carry3", n))
			sb.WriteString("module main() {\n  qbit a[3];\n  qbit b[3];\n  qbit cin;\n  qbit flag;\n")
			initReg(&sb, "a", n, a)
			initReg(&sb, "b", n, b)
			sb.WriteString("  lt3(a, b, cin, flag);\n}\n")
			basis, m := runBasis(t, sb.String(), 0)
			want := uint64(0)
			if a < b {
				want = 1
			}
			if got := regVal(t, m, basis, "flag"); got != want {
				t.Errorf("a=%d b=%d: lt = %d, want %d", a, b, got, want)
			}
			if regVal(t, m, basis, "a") != a || regVal(t, m, basis, "b") != b {
				t.Errorf("a=%d b=%d: inputs clobbered", a, b)
			}
		}
	}
}

func TestMultiCX(t *testing.T) {
	for n := 2; n <= 4; n++ {
		for c := uint64(0); c < 1<<uint(n); c++ {
			var sb strings.Builder
			sb.WriteString(ctqg.MultiCX("mcx", n))
			fmt.Fprintf(&sb, "module main() {\n  qbit c[%d];\n  qbit target;\n", n)
			initReg(&sb, "c", n, c)
			sb.WriteString("  mcx(c, target);\n}\n")
			basis, m := runBasis(t, sb.String(), n-1)
			want := uint64(0)
			if c == 1<<uint(n)-1 {
				want = 1
			}
			if got := regVal(t, m, basis, "target"); got != want {
				t.Errorf("n=%d c=%b: target = %d, want %d", n, c, got, want)
			}
			if got := regVal(t, m, basis, "c"); got != c {
				t.Errorf("n=%d: controls clobbered to %b", n, got)
			}
		}
	}
}

func TestCtrlAdder(t *testing.T) {
	const n = 3
	for _, ctrl := range []uint64{0, 1} {
		for _, tc := range []struct{ a, b uint64 }{{3, 4}, {7, 7}, {0, 5}, {6, 3}} {
			var sb strings.Builder
			sb.WriteString(ctqg.Adder("add3", n))
			sb.WriteString(ctqg.CtrlCopy("ccopy3", n))
			sb.WriteString(ctqg.CtrlAdder("cadd3", "ccopy3", "add3", n))
			sb.WriteString("module main() {\n  qbit ctl;\n  qbit a[3];\n  qbit b[3];\n  qbit cin;\n  qbit cout;\n")
			if ctrl == 1 {
				sb.WriteString("  X(ctl);\n")
			}
			initReg(&sb, "a", n, tc.a)
			initReg(&sb, "b", n, tc.b)
			sb.WriteString("  cadd3(ctl, a, b, cin, cout);\n}\n")
			basis, m := runBasis(t, sb.String(), n)
			want := tc.b
			wantCarry := uint64(0)
			if ctrl == 1 {
				want = (tc.a + tc.b) % (1 << n)
				wantCarry = (tc.a + tc.b) >> n
			}
			if got := regVal(t, m, basis, "b"); got != want {
				t.Errorf("ctrl=%d a=%d b=%d: result %d, want %d", ctrl, tc.a, tc.b, got, want)
			}
			if got := regVal(t, m, basis, "cout"); got != wantCarry {
				t.Errorf("ctrl=%d a=%d b=%d: carry %d, want %d", ctrl, tc.a, tc.b, got, wantCarry)
			}
			if regVal(t, m, basis, "a") != tc.a {
				t.Errorf("a clobbered")
			}
		}
	}
}

func TestConstAdd(t *testing.T) {
	const n = 4
	for _, tc := range []struct{ c, b uint64 }{{5, 3}, {0, 9}, {15, 1}, {8, 8}} {
		var sb strings.Builder
		sb.WriteString(ctqg.Adder("add4", n))
		sb.WriteString(ctqg.ConstAdd("kadd", "add4", n, tc.c))
		sb.WriteString("module main() {\n  qbit b[4];\n  qbit cin;\n  qbit cout;\n")
		initReg(&sb, "b", n, tc.b)
		sb.WriteString("  kadd(b, cin, cout);\n}\n")
		basis, m := runBasis(t, sb.String(), n)
		want := (tc.c + tc.b) % (1 << n)
		if got := regVal(t, m, basis, "b"); got != want {
			t.Errorf("c=%d b=%d: result %d, want %d", tc.c, tc.b, got, want)
		}
	}
}

func TestMultiplier(t *testing.T) {
	const n = 2
	for a := uint64(0); a < 4; a++ {
		for b := uint64(0); b < 4; b++ {
			var sb strings.Builder
			sb.WriteString(ctqg.Adder("add2", n))
			sb.WriteString(ctqg.CtrlCopy("ccopy2", n))
			sb.WriteString(ctqg.CtrlAdder("cadd2", "ccopy2", "add2", n))
			sb.WriteString(ctqg.Multiplier("mul2", "cadd2", n))
			sb.WriteString("module main() {\n  qbit a[2];\n  qbit b[2];\n  qbit p[4];\n  qbit cin;\n")
			initReg(&sb, "a", n, a)
			initReg(&sb, "b", n, b)
			sb.WriteString("  mul2(a, b, p, cin);\n}\n")
			basis, m := runBasis(t, sb.String(), n)
			if got := regVal(t, m, basis, "p"); got != a*b {
				t.Errorf("a=%d b=%d: product %d, want %d", a, b, got, a*b)
			}
			if regVal(t, m, basis, "a") != a || regVal(t, m, basis, "b") != b {
				t.Errorf("a=%d b=%d: inputs clobbered", a, b)
			}
		}
	}
}

func TestRotL(t *testing.T) {
	const n = 5
	for r := 0; r < n; r++ {
		for _, v := range []uint64{0b10110, 0b00001, 0b11111, 0b01010} {
			var sb strings.Builder
			sb.WriteString(ctqg.RotL("rot", n, r))
			fmt.Fprintf(&sb, "module main() {\n  qbit x[%d];\n", n)
			initReg(&sb, "x", n, v)
			sb.WriteString("  rot(x);\n}\n")
			basis, m := runBasis(t, sb.String(), 0)
			want := ((v << uint(r)) | (v >> uint(n-r))) & (1<<n - 1)
			if got := regVal(t, m, basis, "x"); got != want {
				t.Errorf("r=%d v=%05b: got %05b, want %05b", r, v, got, want)
			}
		}
	}
}

func TestBitwiseFunctions(t *testing.T) {
	const n = 3
	cases := []struct {
		name string
		src  string
		want func(x, y, z uint64) uint64
	}{
		{"ch", ctqg.ChFunc("f", n), func(x, y, z uint64) uint64 { return (x & y) ^ (^x&z)&7 }},
		{"maj", ctqg.MajFunc("f", n), func(x, y, z uint64) uint64 { return (x & y) ^ (x & z) ^ (y & z) }},
		{"parity", ctqg.ParityFunc("f", n), func(x, y, z uint64) uint64 { return x ^ y ^ z }},
	}
	for _, tc := range cases {
		for _, vals := range [][3]uint64{{5, 3, 6}, {0, 7, 2}, {7, 7, 7}, {1, 2, 4}} {
			var sb strings.Builder
			sb.WriteString(tc.src)
			sb.WriteString("module main() {\n  qbit x[3];\n  qbit y[3];\n  qbit z[3];\n  qbit out[3];\n")
			initReg(&sb, "x", n, vals[0])
			initReg(&sb, "y", n, vals[1])
			initReg(&sb, "z", n, vals[2])
			sb.WriteString("  f(x, y, z, out);\n}\n")
			basis, m := runBasis(t, sb.String(), 0)
			want := tc.want(vals[0], vals[1], vals[2]) & 7
			if got := regVal(t, m, basis, "out"); got != want {
				t.Errorf("%s(%d,%d,%d) = %d, want %d", tc.name, vals[0], vals[1], vals[2], got, want)
			}
		}
	}
}
