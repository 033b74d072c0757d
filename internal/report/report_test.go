package report_test

// The report profiler's contract is "correct by construction": it walks
// the same schedules and per-boundary move lists that internal/verify
// replays when proving legality. These tests hold it to that — every
// analyzed artifact first passes verify.Full, then every reported number
// is recomputed independently from the raw schedule and move lists.

import (
	"bytes"
	"context"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/lpfs"
	"github.com/scaffold-go/multisimd/internal/rcp"
	"github.com/scaffold-go/multisimd/internal/report"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/verify"
)

var update = flag.Bool("update", false, "rewrite golden files")

// analyzed builds one verified (schedule, graph, result) triple from a
// seeded random leaf.
func analyzed(t *testing.T, seed int64, sched schedule.Scheduler, k, d int, copts comm.Options) (*schedule.Schedule, *dag.Graph, *comm.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := verify.RandomLeaf(rng, verify.GenOptions{Ops: 120, Qubits: 9})
	g, err := dag.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Schedule(m, g, k, d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := comm.Analyze(s, copts)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Full(s, g, res, copts); err != nil {
		t.Fatalf("verify rejected the fixture: %v", err)
	}
	return s, g, res
}

// TestAnalyzeCrossCheck recomputes every analytic from the raw schedule
// and the verified move lists and compares, across both schedulers and
// the comm configurations that change movement behavior.
func TestAnalyzeCrossCheck(t *testing.T) {
	configs := []comm.Options{
		{},
		{LocalCapacity: -1},
		{LocalCapacity: 2},
		{LocalCapacity: -1, NoOverlap: true},
		{LocalCapacity: 1, EPRBandwidth: 2},
	}
	scheds := []schedule.Scheduler{rcp.Scheduler{}, lpfs.Scheduler{}}
	for si, sched := range scheds {
		for ci, copts := range configs {
			s, g, res := analyzed(t, int64(1000+si*10+ci), sched, 3, 3, copts)
			mr := report.Analyze("m", s, g, res)

			if mr.Cycles != res.Cycles || mr.StallCycles != res.StallCycles() {
				t.Errorf("%s/%d: cycles %d/%d, want %d/%d",
					sched.Name(), ci, mr.Cycles, mr.StallCycles, res.Cycles, res.StallCycles())
			}
			if mr.Steps != len(s.Steps) || mr.Ops != s.TotalOps() || mr.Width != s.K {
				t.Errorf("%s/%d: shape %d steps %d ops %d width", sched.Name(), ci, mr.Steps, mr.Ops, mr.Width)
			}
			if mr.CriticalPath != int64(g.CriticalPath()) {
				t.Errorf("%s/%d: cp %d != %d", sched.Name(), ci, mr.CriticalPath, g.CriticalPath())
			}

			// Movement: recount the verified boundary lists from scratch.
			var global, local, arrive, evLocal, evGlobal int64
			for _, bd := range res.Boundaries {
				for _, mv := range bd {
					if mv.Kind == comm.GlobalMove {
						global++
					} else {
						local++
					}
					switch mv.To.Kind {
					case comm.InRegion:
						arrive++
					case comm.InLocal:
						evLocal++
					case comm.InGlobal:
						evGlobal++
					}
				}
			}
			mb := mr.Moves
			if mb.Global != global || mb.Local != local {
				t.Errorf("%s/%d: moves %d/%d, recount %d/%d", sched.Name(), ci, mb.Global, mb.Local, global, local)
			}
			if mb.Global != res.GlobalMoves || mb.Local != res.LocalMoves {
				t.Errorf("%s/%d: breakdown %d/%d disagrees with summary %d/%d",
					sched.Name(), ci, mb.Global, mb.Local, res.GlobalMoves, res.LocalMoves)
			}
			if mb.Arrivals != arrive || mb.EvictToLocal != evLocal || mb.EvictToGlobal != evGlobal {
				t.Errorf("%s/%d: destination split %d/%d/%d, recount %d/%d/%d",
					sched.Name(), ci, mb.Arrivals, mb.EvictToLocal, mb.EvictToGlobal, arrive, evLocal, evGlobal)
			}
			if got := mb.Arrivals + mb.EvictToLocal + mb.EvictToGlobal; got != global+local {
				t.Errorf("%s/%d: destinations %d != moves %d", sched.Name(), ci, got, global+local)
			}

			// Occupancy: recompute busy regions per step directly.
			var busyTotal int64
			for ti, step := range s.Steps {
				busy := 0
				for _, ops := range step.Regions {
					if len(ops) > 0 {
						busy++
					}
				}
				busyTotal += int64(busy)
				if mr.StepOccupancy[ti] != busy {
					t.Fatalf("%s/%d: step %d occupancy %d, want %d", sched.Name(), ci, ti, mr.StepOccupancy[ti], busy)
				}
			}
			wantUtil := float64(busyTotal) / float64(s.K*len(s.Steps))
			if diff := mr.Utilization - wantUtil; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("%s/%d: utilization %f, want %f", sched.Name(), ci, mr.Utilization, wantUtil)
			}
			var histTotal int64
			for _, v := range mr.OccupancyHist {
				histTotal += v
			}
			if histTotal != int64(len(s.Steps)) {
				t.Errorf("%s/%d: occupancy hist sums to %d, want %d", sched.Name(), ci, histTotal, len(s.Steps))
			}

			// Slack: every scheduled op lands in exactly one bucket, and no
			// op can run before its ASAP level.
			var slackN int64
			for _, v := range mr.Slack.Hist {
				slackN += v
			}
			if slackN != int64(s.TotalOps()) {
				t.Errorf("%s/%d: slack hist covers %d ops, want %d", sched.Name(), ci, slackN, s.TotalOps())
			}
			at := s.StepOf()
			for i, ts := range at {
				if ts >= 0 && ts < g.Depth[i]-1 {
					t.Fatalf("%s/%d: op %d at step %d before ASAP %d", sched.Name(), ci, i, ts, g.Depth[i]-1)
				}
			}
		}
	}
}

// reportSource is a small two-leaf program whose evaluation is fully
// deterministic — the golden JSON fixture pins its report rendering.
const reportSource = `
module mixer(qbit x[3]) {
  H(x[0]);
  CNOT(x[0], x[1]);
  CNOT(x[1], x[2]);
  T(x[2]);
}
module ladder(qbit y[2]) {
  H(y[0]);
  CNOT(y[0], y[1]);
  T(y[1]);
  CNOT(y[0], y[1]);
}
module main() {
  qbit q[6];
  mixer(q[0:3]);
  ladder(q[3:5]);
  for (i = 0; i < 6; i++) {
    mixer(q[2:5]);
    ladder(q[0:2]);
  }
}
`

// evalReport evaluates reportSource with verification on and returns
// the report BuildReport assembles for that evaluation.
func evalReport(t *testing.T, opts core.EvalOptions) *report.Report {
	t.Helper()
	p, err := core.Build(reportSource, core.PipelineOptions{FTh: 50})
	if err != nil {
		t.Fatal(err)
	}
	opts.Verify = true
	m, err := core.Evaluate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.BuildReport(context.Background(), p, "report-toy", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("built report fails its own validation: %v", err)
	}
	return r
}

func TestGoldenJSON(t *testing.T) {
	r := evalReport(t, core.EvalOptions{K: 3, Comm: comm.Options{LocalCapacity: -1}})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_toy.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON report drifted from %s; run with -update if intended.\ngot:\n%s", golden, buf.String())
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := evalReport(t, core.EvalOptions{K: 3, Comm: comm.Options{LocalCapacity: 2}})
	path := filepath.Join(t.TempDir(), "r.json")
	if err := r.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := report.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Error("report did not survive a JSON round trip")
	}
}

func TestValidateRejects(t *testing.T) {
	r := evalReport(t, core.EvalOptions{K: 2})
	bad := *r
	bad.Schema = report.SchemaVersion + 1
	if err := bad.Validate(); err == nil {
		t.Error("wrong schema version accepted")
	}
	bad = *r
	bad.K = 0
	if err := bad.Validate(); err == nil {
		t.Error("k=0 accepted")
	}
	if len(r.Modules) >= 2 {
		bad = *r
		bad.Modules = []report.ModuleReport{r.Modules[1], r.Modules[0]}
		if err := bad.Validate(); err == nil {
			t.Error("unsorted modules accepted")
		}
	}
	bad = *r
	bad.Modules = append([]report.ModuleReport(nil), r.Modules...)
	bad.Modules[0].Utilization = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("utilization > 1 accepted")
	}
}

// TestHTMLSelfContained renders the report and asserts the output pulls
// nothing from the network: no scripts, stylesheets, images or fonts.
func TestHTMLSelfContained(t *testing.T) {
	r := evalReport(t, core.EvalOptions{K: 3, Comm: comm.Options{LocalCapacity: -1, EPRBandwidth: 1}})
	var buf bytes.Buffer
	if err := r.WriteHTML(&buf); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, banned := range []string{"<script", "<link", "<img", "http://", "https://", "url(", "@import", "src="} {
		if strings.Contains(html, banned) {
			t.Errorf("HTML report contains %q — not self-contained", banned)
		}
	}
	for _, want := range []string{"<svg", "polyline", "report-toy", "mixer", "ladder"} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
}

// TestDiffAttributesInjectedRegression injects a schedule-length
// regression into one module and checks Diff pins the blame on it, down
// to the first divergent step.
func TestDiffAttributesInjectedRegression(t *testing.T) {
	a := evalReport(t, core.EvalOptions{K: 3})
	b := evalReport(t, core.EvalOptions{K: 3})

	// Baseline sanity: identical runs must diff clean.
	if d := report.Diff(a, b); d.Changed() || d.Regression {
		t.Fatalf("identical runs diff dirty: %+v", d)
	}

	// Inject: module "mixer" gains 5 steps and 9 cycles, diverging at
	// step 1; whole-benchmark totals grow accordingly.
	b.Totals.CommCycles += 9
	b.Totals.ZeroCommSteps += 5
	var victim *report.ModuleReport
	for i := range b.Modules {
		if b.Modules[i].Name == "mixer" {
			victim = &b.Modules[i]
		}
	}
	if victim == nil {
		t.Fatal("no mixer module in the report")
	}
	victim.Steps += 5
	victim.Cycles += 9
	victim.StallCycles += 4
	if len(victim.StepOccupancy) < 2 {
		t.Fatalf("mixer occupancy series too short: %d", len(victim.StepOccupancy))
	}
	victim.StepOccupancy[1]++

	d := report.Diff(a, b)
	if !d.Regression {
		t.Fatal("injected regression not flagged")
	}
	if d.ConfigDrift {
		t.Error("identical configs flagged as drift")
	}
	if d.Totals.CommCycles != 9 || d.Totals.ZeroCommSteps != 5 {
		t.Errorf("totals delta %+d/%+d, want +9/+5", d.Totals.CommCycles, d.Totals.ZeroCommSteps)
	}
	if len(d.Modules) == 0 {
		t.Fatal("no module attribution")
	}
	top := d.Modules[0]
	if top.Name != "mixer" || top.Presence != "both" {
		t.Fatalf("blame on %q (%s), want mixer (both)", top.Name, top.Presence)
	}
	if top.Steps != 5 || top.Cycles != 9 || top.StallCycles != 4 {
		t.Errorf("mixer delta steps=%d cycles=%d stall=%d, want 5/9/4", top.Steps, top.Cycles, top.StallCycles)
	}
	if top.FirstDivergentStep != 1 {
		t.Errorf("first divergent step %d, want 1", top.FirstDivergentStep)
	}
	if !top.CriticalPathSame {
		t.Error("critical path flagged as changed; only the schedule moved")
	}

	var buf bytes.Buffer
	if err := d.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"comm cycles +9", "mixer: +9 cycles", "diverges at step 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("attribution text missing %q:\n%s", want, text)
		}
	}
}

// TestDiffConfigDrift compares runs at different d and expects the drift
// flag, so config changes are never mistaken for scheduler regressions.
func TestDiffConfigDrift(t *testing.T) {
	a := evalReport(t, core.EvalOptions{K: 3})
	b := evalReport(t, core.EvalOptions{K: 3, D: 2})
	d := report.Diff(a, b)
	if !d.ConfigDrift {
		t.Error("d=∞ vs d=2 not flagged as config drift")
	}
	// Capping d can only lengthen schedules; the drift flag must coexist
	// with honest deltas.
	if d.Totals.ZeroCommSteps < 0 {
		t.Errorf("d=2 shortened the schedule? delta %d", d.Totals.ZeroCommSteps)
	}
}

func TestDiffPresence(t *testing.T) {
	a := evalReport(t, core.EvalOptions{K: 3})
	b := evalReport(t, core.EvalOptions{K: 3})
	b.Modules = b.Modules[:1] // drop the later module from B
	d := report.Diff(a, b)
	var gone bool
	for _, m := range d.Modules {
		if m.Presence == "a-only" {
			gone = true
		}
	}
	if !gone {
		t.Errorf("dropped module not reported a-only: %+v", d.Modules)
	}
}
