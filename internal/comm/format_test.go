package comm_test

import (
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/qasm"
)

func TestWriteSchedule(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.H, 0)
	m.Rot(qasm.Rz, 0.5, 1)
	m.Gate(qasm.CNOT, 0, 1)
	steps := [][][]int32{
		{{0}, {1}},
		{{2}, nil},
	}
	s := sched(t, m, steps, 2)
	res, err := comm.Analyze(s, comm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := comm.WriteSchedule(&sb, s, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"t0",
		"r1: H(q[0])",
		"r2: Rz(q[1],0.5)",
		"q[0]:gl->r1*", // initial teleport, starred
		"r1: CNOT(q[0],q[1])",
		"q[1]:r2->r1*", // cross-region teleport into the CNOT
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("expected 2 lines, got %d:\n%s", lines, out)
	}
	// Without annotations the move column prints "-".
	sb.Reset()
	if err := comm.WriteSchedule(&sb, s, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "| -") {
		t.Errorf("nil result should print '-':\n%s", sb.String())
	}
}

func TestWriteScheduleLocalMoves(t *testing.T) {
	m := ir.NewModule("m", nil, []ir.Reg{{Name: "q", Size: 2}})
	m.Gate(qasm.H, 0)
	m.Gate(qasm.T, 1)
	m.Gate(qasm.X, 0)
	steps := [][][]int32{
		{{0}},
		{{1}},
		{{2}},
	}
	s := sched(t, m, steps, 1)
	res, err := comm.Analyze(s, comm.Options{LocalCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := comm.WriteSchedule(&sb, s, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "q[0]:r1->l1") || !strings.Contains(out, "q[0]:l1->r1") {
		t.Errorf("scratchpad round-trip not rendered:\n%s", out)
	}
	// Local moves are unstarred.
	if strings.Contains(out, "l1*") {
		t.Errorf("local move starred as teleport:\n%s", out)
	}
}
