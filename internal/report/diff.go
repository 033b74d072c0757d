package report

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Run identifies one side of a comparison.
type Run struct {
	Benchmark string     `json:"benchmark"`
	Scheduler string     `json:"scheduler"`
	K         int        `json:"k"`
	D         int        `json:"d"`
	Comm      CommConfig `json:"comm"`
}

func runOf(r *Report) Run {
	return Run{Benchmark: r.Benchmark, Scheduler: r.Scheduler, K: r.K, D: r.D, Comm: r.Comm}
}

// TotalsDelta is the whole-benchmark movement between two runs (B - A).
type TotalsDelta struct {
	CommCycles    int64 `json:"comm_cycles"`
	ZeroCommSteps int64 `json:"zero_comm_steps"`
	CriticalPath  int64 `json:"critical_path"`
	GlobalMoves   int64 `json:"global_moves"`
	LocalMoves    int64 `json:"local_moves"`
	TotalGates    int64 `json:"total_gates"`
}

// RegionDelta names a region whose utilization moved between the runs.
type RegionDelta struct {
	Region int     `json:"region"`
	Delta  float64 `json:"delta"`
}

// ModuleDelta attributes one module's share of the run-to-run movement.
type ModuleDelta struct {
	Name string `json:"name"`
	// Presence is "both", "a-only" or "b-only"; deltas are meaningful
	// only for "both".
	Presence string `json:"presence"`

	Steps            int     `json:"steps"`  // B - A
	Cycles           int64   `json:"cycles"` // B - A
	StallCycles      int64   `json:"stall_cycles"`
	GlobalMoves      int64   `json:"global_moves"`
	LocalMoves       int64   `json:"local_moves"`
	Utilization      float64 `json:"utilization"`
	CriticalPathSame bool    `json:"critical_path_same"`

	// FirstDivergentStep is the earliest timestep whose busy-region
	// count differs between the runs (-1: occupancy series agree over
	// their shared, untruncated prefix).
	FirstDivergentStep int `json:"first_divergent_step"`
	// Regions lists per-region utilization movement beyond 0.1%,
	// largest first.
	Regions []RegionDelta `json:"regions,omitempty"`
}

// DiffReport is the structured comparison of two reports, attributing
// whole-benchmark deltas to specific modules, regions and steps.
type DiffReport struct {
	Schema int         `json:"schema"`
	A      Run         `json:"a"`
	B      Run         `json:"b"`
	Totals TotalsDelta `json:"totals"`
	// Regression reports whether B is worse than A on a schedule-quality
	// axis: longer comm-expanded runtime or longer zero-comm schedule.
	Regression bool `json:"regression"`
	// ConfigDrift is set when the two runs used different scheduler /
	// machine / comm configurations — deltas then reflect configuration,
	// not code.
	ConfigDrift bool `json:"config_drift,omitempty"`
	// Modules is sorted by absolute cycle delta, largest first; modules
	// with no movement at all are omitted.
	Modules []ModuleDelta `json:"modules"`
}

// Diff compares two reports (A the baseline, B the fresh run) and
// attributes their metric deltas. Both sides should profile the same
// benchmark; mismatched configurations are flagged, not rejected.
func Diff(a, b *Report) *DiffReport {
	d := &DiffReport{
		Schema: SchemaVersion,
		A:      runOf(a),
		B:      runOf(b),
		Totals: TotalsDelta{
			CommCycles:    b.Totals.CommCycles - a.Totals.CommCycles,
			ZeroCommSteps: b.Totals.ZeroCommSteps - a.Totals.ZeroCommSteps,
			CriticalPath:  b.Totals.CriticalPath - a.Totals.CriticalPath,
			GlobalMoves:   b.Totals.GlobalMoves - a.Totals.GlobalMoves,
			LocalMoves:    b.Totals.LocalMoves - a.Totals.LocalMoves,
			TotalGates:    b.Totals.TotalGates - a.Totals.TotalGates,
		},
	}
	d.Regression = d.Totals.CommCycles > 0 || d.Totals.ZeroCommSteps > 0
	d.ConfigDrift = d.A != d.B

	am := map[string]*ModuleReport{}
	for i := range a.Modules {
		am[a.Modules[i].Name] = &a.Modules[i]
	}
	seen := map[string]bool{}
	for i := range b.Modules {
		mb := &b.Modules[i]
		seen[mb.Name] = true
		ma, ok := am[mb.Name]
		if !ok {
			d.Modules = append(d.Modules, ModuleDelta{
				Name: mb.Name, Presence: "b-only",
				Steps: mb.Steps, Cycles: mb.Cycles, FirstDivergentStep: -1,
			})
			continue
		}
		md := moduleDelta(ma, mb)
		if md != nil {
			d.Modules = append(d.Modules, *md)
		}
	}
	for i := range a.Modules {
		if !seen[a.Modules[i].Name] {
			d.Modules = append(d.Modules, ModuleDelta{
				Name: a.Modules[i].Name, Presence: "a-only",
				Steps: -a.Modules[i].Steps, Cycles: -a.Modules[i].Cycles,
				FirstDivergentStep: -1,
			})
		}
	}
	sort.Slice(d.Modules, func(i, j int) bool {
		ci := abs64(d.Modules[i].Cycles)
		cj := abs64(d.Modules[j].Cycles)
		if ci != cj {
			return ci > cj
		}
		return d.Modules[i].Name < d.Modules[j].Name
	})
	return d
}

// moduleDelta compares one module across both runs; nil when nothing
// moved.
func moduleDelta(a, b *ModuleReport) *ModuleDelta {
	md := &ModuleDelta{
		Name: a.Name, Presence: "both",
		Steps:              b.Steps - a.Steps,
		Cycles:             b.Cycles - a.Cycles,
		StallCycles:        b.StallCycles - a.StallCycles,
		GlobalMoves:        b.Moves.Global - a.Moves.Global,
		LocalMoves:         b.Moves.Local - a.Moves.Local,
		Utilization:        b.Utilization - a.Utilization,
		CriticalPathSame:   b.CriticalPath == a.CriticalPath,
		FirstDivergentStep: -1,
	}
	n := len(a.StepOccupancy)
	if len(b.StepOccupancy) < n {
		n = len(b.StepOccupancy)
	}
	for t := 0; t < n; t++ {
		if a.StepOccupancy[t] != b.StepOccupancy[t] {
			md.FirstDivergentStep = t
			break
		}
	}
	if md.FirstDivergentStep < 0 && md.Steps != 0 && !a.Truncated && !b.Truncated {
		// Same prefix, different length: divergence is the first step
		// one run has and the other does not.
		md.FirstDivergentStep = n
	}
	nr := len(a.RegionUtil)
	if len(b.RegionUtil) < nr {
		nr = len(b.RegionUtil)
	}
	for r := 0; r < nr; r++ {
		if dl := b.RegionUtil[r] - a.RegionUtil[r]; math.Abs(dl) > 0.001 {
			md.Regions = append(md.Regions, RegionDelta{Region: r, Delta: dl})
		}
	}
	sort.Slice(md.Regions, func(i, j int) bool {
		return math.Abs(md.Regions[i].Delta) > math.Abs(md.Regions[j].Delta)
	})
	if md.Steps == 0 && md.Cycles == 0 && md.StallCycles == 0 &&
		md.GlobalMoves == 0 && md.LocalMoves == 0 &&
		md.FirstDivergentStep < 0 && len(md.Regions) == 0 {
		return nil
	}
	return md
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Changed reports whether the comparison found any movement at all.
func (d *DiffReport) Changed() bool {
	return d.Totals != (TotalsDelta{}) || len(d.Modules) > 0
}

// WriteText renders the attribution as a human-readable summary, the
// one TestReportBaselinesCurrent (cmd/qbench) prints when a committed
// schedule report drifts:
//
//	SHA-1: comm cycles +120 (+3.4%), zero-comm steps +20
//	  sha1_round: +100 cycles (steps +20, stall +80), diverges at step 42
//	    region 1 utilization -12.5%
func (d *DiffReport) WriteText(w io.Writer) error {
	name := d.B.Benchmark
	if name == "" {
		name = "(unnamed)"
	}
	if !d.Changed() {
		_, err := fmt.Fprintf(w, "%s: no schedule-level changes\n", name)
		return err
	}
	line := fmt.Sprintf("%s: comm cycles %s", name, signed(d.Totals.CommCycles))
	if d.Totals.ZeroCommSteps != 0 {
		line += fmt.Sprintf(", zero-comm steps %s", signed(d.Totals.ZeroCommSteps))
	}
	if d.Totals.GlobalMoves != 0 {
		line += fmt.Sprintf(", teleports %s", signed(d.Totals.GlobalMoves))
	}
	if d.Totals.LocalMoves != 0 {
		line += fmt.Sprintf(", local moves %s", signed(d.Totals.LocalMoves))
	}
	if d.Totals.CriticalPath != 0 {
		line += fmt.Sprintf(", critical path %s", signed(d.Totals.CriticalPath))
	}
	if d.ConfigDrift {
		line += "  [configuration drift: deltas reflect config, not code]"
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	for _, m := range d.Modules {
		switch m.Presence {
		case "a-only":
			if _, err := fmt.Fprintf(w, "  %s: only in baseline (%s cycles)\n", m.Name, signed(m.Cycles)); err != nil {
				return err
			}
			continue
		case "b-only":
			if _, err := fmt.Fprintf(w, "  %s: new in this run (%s cycles)\n", m.Name, signed(m.Cycles)); err != nil {
				return err
			}
			continue
		}
		line := fmt.Sprintf("  %s: %s cycles (steps %s, stall %s, teleports %s)",
			m.Name, signed(m.Cycles), signed(int64(m.Steps)), signed(m.StallCycles), signed(m.GlobalMoves))
		if m.FirstDivergentStep >= 0 {
			line += fmt.Sprintf(", diverges at step %d", m.FirstDivergentStep)
		}
		if !m.CriticalPathSame {
			line += ", critical path changed (program content differs)"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		for i, r := range m.Regions {
			if i >= 4 {
				break
			}
			if _, err := fmt.Fprintf(w, "    region %d utilization %+0.1f%%\n", r.Region, 100*r.Delta); err != nil {
				return err
			}
		}
	}
	return nil
}

// signed renders an int64 with an explicit sign.
func signed(v int64) string { return fmt.Sprintf("%+d", v) }
