package core_test

import (
	"testing"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/obs"
)

func toyWorkloads(t *testing.T) []core.Workload {
	t.Helper()
	p, err := core.Build(toySource, core.PipelineOptions{FTh: 50})
	if err != nil {
		t.Fatal(err)
	}
	return []core.Workload{{Name: "toy", Params: "-", Prog: p}}
}

func TestSensDMonotone(t *testing.T) {
	ws := toyWorkloads(t)
	// d starts at 2: the toy program contains CNOTs, and a d=1 machine
	// cannot execute a 2-qubit gate — schedulers reject it (the old d=1
	// row existed only while LPFS ignored d for pinned-path heads).
	rows, err := core.SensD(ws, core.LPFS, 4, []int{2, 3, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Larger d never hurts (0 = unlimited comes last).
	for i := 1; i < len(rows); i++ {
		if rows[i].SpeedupVsNaive() < rows[i-1].SpeedupVsNaive()*0.99 {
			t.Errorf("d=%d speedup %.3f regressed from d=%d %.3f",
				rows[i].Opts.D, rows[i].SpeedupVsNaive(), rows[i-1].Opts.D, rows[i-1].SpeedupVsNaive())
		}
	}
}

func TestSensEPRMonotone(t *testing.T) {
	ws := toyWorkloads(t)
	rows, err := core.SensEPR(ws, core.LPFS, 4, []int{1, 2, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].SpeedupVsNaive() < rows[i-1].SpeedupVsNaive()*0.99 {
			t.Errorf("bw=%d speedup %.3f regressed from bw=%d %.3f",
				rows[i].Opts.Comm.EPRBandwidth, rows[i].SpeedupVsNaive(),
				rows[i-1].Opts.Comm.EPRBandwidth, rows[i-1].SpeedupVsNaive())
		}
	}
	// A bandwidth of 1 must not beat unlimited.
	if rows[0].SpeedupVsNaive() > rows[len(rows)-1].SpeedupVsNaive()+1e-9 {
		t.Errorf("throttled beats unlimited: %.3f vs %.3f", rows[0].SpeedupVsNaive(), rows[len(rows)-1].SpeedupVsNaive())
	}
}

func TestAblationsRun(t *testing.T) {
	ws := toyWorkloads(t)
	lp, err := core.AblationLPFS(ws, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp) != 5 {
		t.Errorf("lpfs variants: %d", len(lp))
	}
	rc, err := core.AblationRCP(ws, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rc) != 4 {
		t.Errorf("rcp variants: %d", len(rc))
	}
	cm, err := core.AblationComm(ws, core.LPFS, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm) != 2 {
		t.Fatalf("comm variants: %d", len(cm))
	}
	// Masked accounting is never slower than strict.
	if cm[0].SpeedupVsNaive() < cm[1].SpeedupVsNaive()-1e-9 {
		t.Errorf("masked %.3f below strict %.3f", cm[0].SpeedupVsNaive(), cm[1].SpeedupVsNaive())
	}
	for _, r := range append(append(lp, rc...), cm...) {
		if r.SpeedupVsNaive() <= 0 {
			t.Errorf("%s/%s: non-positive speedup", r.Name, r.Variant)
		}
	}
}

func TestSweepFTh(t *testing.T) {
	o := &obs.Observer{Trace: obs.NewTracer()}
	srcs := []core.SourceWorkload{{Name: "toy", Source: toySource, Pipeline: core.PipelineOptions{Obs: o}}}
	rows, err := core.SweepFTh(srcs, core.LPFS, 2, []int64{10, 1000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Below the inner module's size, the program stays modular; above,
	// it flattens into fewer modules.
	if rows[0].Modules <= rows[1].Modules {
		t.Errorf("fth=10 modules %d should exceed fth=1000 modules %d",
			rows[0].Modules, rows[1].Modules)
	}
	// Pipeline.Obs instruments both the rebuilds and the evaluations.
	cats := map[string]int{}
	for _, ev := range o.Trace.Events() {
		cats[ev.Cat]++
	}
	for _, cat := range []string{"pipeline", "engine"} {
		if cats[cat] == 0 {
			t.Errorf("no %s spans traced through Pipeline.Obs (spans by category: %v)", cat, cats)
		}
	}
}
