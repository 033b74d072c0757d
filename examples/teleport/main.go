// Teleportation demo: the paper's Fig. 2 circuit — the physical
// mechanism behind every 4-cycle "global move" the schedulers place —
// run on the state-vector simulator, plus the same mechanism viewed from
// the scheduler's side as a move list.
//
//	go run ./examples/teleport
package main

import (
	"fmt"
	"log"
	"math"
	"math/cmplx"
	"os"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/sim"
)

func main() {
	physical()
	scheduled()
}

// physical teleports an arbitrary state through Fig. 2's circuit.
func physical() {
	prog, err := teleportProgram(
		[]qasm.Opcode{qasm.Ry, qasm.Rz},
		[]float64{1.234, 0.567},
	)
	if err != nil {
		log.Fatal(err)
	}
	st, err := sim.NewState(3)
	if err != nil {
		log.Fatal(err)
	}
	if err := st.RunProgram(prog); err != nil {
		log.Fatal(err)
	}
	// The prepared state α|0> + β|1> should now live on qubit 2.
	alpha := math.Cos(1.234 / 2)
	beta := math.Sin(1.234 / 2)
	var p1 float64
	for i := uint64(0); i < 8; i++ {
		if i&4 != 0 {
			p1 += math.Pow(cmplx.Abs(st.Amplitude(i)), 2)
		}
	}
	fmt.Println("Fig. 2 quantum teleportation on the simulator:")
	fmt.Printf("  prepared |ψ> = %.3f|0> + e^iφ %.3f|1> on the source qubit\n", alpha, beta)
	fmt.Printf("  measured P(destination = 1) = %.6f (expected %.6f)\n\n", p1, beta*beta)
}

// scheduled shows the same 4-cycle move as the scheduler sees it.
func scheduled() {
	prog, err := core.Build(`
module main() {
  qbit a;
  qbit b;
  H(a);
  CNOT(a, b);
  T(b);
  CNOT(a, b);
}
`, core.PipelineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	l, err := core.ScheduleLeaf(prog.EntryModule(), core.LPFS, 2, 0, comm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	s, res := l.S, l.Comm
	fmt.Println("the same teleports from the compiler's point of view")
	fmt.Printf("(each starred move is one Fig. 2 circuit, %d cycles when unmasked):\n", comm.TeleportCycles)
	if err := comm.WriteSchedule(os.Stdout, s, res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d timesteps + %d stall cycles = %d cycles; %d EPR pairs consumed\n",
		s.Length(), res.Cycles-int64(s.Length()), res.Cycles, res.EPRPairs)
}
