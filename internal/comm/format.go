package comm

import (
	"fmt"
	"io"
	"strings"

	"github.com/scaffold-go/multisimd/internal/schedule"
)

// WriteSchedule renders a schedule in the paper's representation (§4):
// one line per timestep with k+1 columns — region 0 is the move list
// (from the communication annotations, if provided), regions 1..k hold
// the operations executing that step. Operations print as
// gate(operands); moves as slot:src->dst with * marking teleports.
//
//	t0 | q[0]:gl->r1* | r1: H(q[0]) H(q[1])
//	t1 | q[2]:r1->l1  | r1: CNOT(q[0],q[2]) | r2: T(q[3])
//
// res may be nil, in which case the move column prints "-".
func WriteSchedule(w io.Writer, s *schedule.Schedule, res *Result) error {
	names := s.M.SlotNames()
	for t := range s.Steps {
		var cols []string
		cols = append(cols, moveColumn(names, t, res))
		for r := 0; r < s.K; r++ {
			ops := s.Region(t, r)
			if len(ops) == 0 {
				continue
			}
			var b strings.Builder
			fmt.Fprintf(&b, "r%d:", r+1)
			for _, op := range ops {
				b.WriteByte(' ')
				b.WriteString(formatOp(s, names, op))
			}
			cols = append(cols, b.String())
		}
		if _, err := fmt.Fprintf(w, "t%-5d | %s\n", t, strings.Join(cols, " | ")); err != nil {
			return err
		}
	}
	return nil
}

func moveColumn(names []string, t int, res *Result) string {
	if res == nil || t >= len(res.Boundaries) || len(res.Boundaries[t]) == 0 {
		return "-"
	}
	var parts []string
	for _, mv := range res.Boundaries[t] {
		mark := ""
		if mv.Kind == GlobalMove {
			mark = "*"
		}
		parts = append(parts, fmt.Sprintf("%s:%s->%s%s",
			names[mv.Slot], locShort(mv.From), locShort(mv.To), mark))
	}
	return strings.Join(parts, " ")
}

func locShort(l Loc) string {
	switch l.Kind {
	case InGlobal:
		return "gl"
	case InRegion:
		return fmt.Sprintf("r%d", l.Region+1)
	case InLocal:
		return fmt.Sprintf("l%d", l.Region+1)
	}
	return "?"
}

func formatOp(s *schedule.Schedule, names []string, op int32) string {
	o := &s.M.Ops[op]
	var b strings.Builder
	b.WriteString(o.Gate.String())
	b.WriteByte('(')
	for i, slot := range o.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(names[slot])
	}
	if o.Gate.IsRotation() {
		fmt.Fprintf(&b, ",%g", o.Angle)
	}
	b.WriteByte(')')
	return b.String()
}
