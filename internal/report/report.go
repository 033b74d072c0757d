// Package report is the schedule-level profiler of the toolflow: where
// package obs observes the *Go process* (spans, counters, pprof), this
// package observes the *schedules the process emits*. It consumes one
// scheduled leaf at a time — its fine-grained schedule, dependency DAG
// and communication analysis, as core.ScheduleLeaf returns them; the
// evaluation itself keeps only per-width scalars — and derives the
// quantities the paper evaluates schedules by:
// per-timestep region occupancy, SIMD utilization per region and
// overall, d-fill, move breakdowns (local/global, eviction/departure),
// communication-overhead fraction, achieved length against the critical
// path, and per-op slack against the ASAP bound.
//
// Three renderings share one versioned in-memory form (Report):
//
//   - a stable JSON schema (SchemaVersion, golden-tested) written by
//     qsched -report-json and qbench's per-benchmark REPORT_<name>.json;
//   - a fully self-contained HTML file (inline SVG Gantt with move
//     arrows, utilization sparklines, no external assets — see html.go);
//   - a structured run-to-run comparison (Diff, diff.go) that
//     attributes metric deltas to specific modules, regions and steps.
//
// The analytics walk the same per-boundary move lists that
// internal/verify replays when checking legality, so the movement
// numbers reported for a schedule the oracle accepts are the replayed
// ground truth; the package's tests cross-check both against each other.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

// SchemaVersion is the JSON report schema version. It increments on any
// backward-incompatible change to the serialized form; readers reject
// mismatched versions (see ReadFile) and CI validates emitted artifacts
// against it.
const SchemaVersion = 1

const (
	// seriesCap bounds the per-step occupancy series kept per module, so
	// Shor's-scale leaves cannot balloon the JSON; Truncated marks the
	// cut.
	seriesCap = 2048
	// ganttStepCap bounds the schedules that carry full Gantt cell/move
	// data (the HTML timeline); longer schedules fall back to the
	// occupancy sparkline only.
	ganttStepCap = 240
	// ganttMoveCap bounds the move arrows kept for the Gantt overlay.
	ganttMoveCap = 4000
	// histCap is the linear bucket count of the d-fill and slack
	// histograms: buckets 0..histCap-2 hold exact values, the last
	// bucket collects everything >= histCap-1.
	histCap = 17
)

// CommConfig mirrors comm.Options into the serialized report so a diff
// can tell configuration drift from scheduler drift.
type CommConfig struct {
	LocalCapacity int  `json:"local_capacity"`
	NoOverlap     bool `json:"no_overlap,omitempty"`
	EPRBandwidth  int  `json:"epr_bandwidth,omitempty"`
}

// CommConfigOf converts the analysis options.
func CommConfigOf(o comm.Options) CommConfig {
	return CommConfig{
		LocalCapacity: o.LocalCapacity,
		NoOverlap:     o.NoOverlap,
		EPRBandwidth:  o.EPRBandwidth,
	}
}

// Metrics is core.Metrics on the wire, the derived speedups
// denormalized so a body is self-contained: the service's response
// bodies and a report's Totals share this one shape.
type Metrics struct {
	TotalGates    int64 `json:"total_gates"`
	MinQubits     int64 `json:"min_qubits"`
	Modules       int   `json:"modules"`
	Leaves        int   `json:"leaves"`
	CriticalPath  int64 `json:"critical_path"`
	ZeroCommSteps int64 `json:"zero_comm_steps"`
	CommCycles    int64 `json:"comm_cycles"`
	GlobalMoves   int64 `json:"global_moves"`
	LocalMoves    int64 `json:"local_moves"`
	SeqCycles     int64 `json:"seq_cycles"`
	NaiveCycles   int64 `json:"naive_cycles"`

	SpeedupVsSeq   float64 `json:"speedup_vs_seq"`
	SpeedupVsNaive float64 `json:"speedup_vs_naive"`
	CPSpeedup      float64 `json:"cp_speedup"`
}

// Totals is the whole-benchmark metric set, denormalized into the
// report so it is self-contained.
type Totals struct {
	Metrics
	// CommOverheadFraction is (CommCycles - ZeroCommSteps) / CommCycles:
	// the share of the achieved runtime spent on unmasked movement.
	CommOverheadFraction float64 `json:"comm_overhead_fraction"`
}

// MoveBreakdown classifies every move of a module's boundary lists.
// Arrivals land operands in regions; evictions park displaced qubits in
// a scratchpad or flush them to global memory; departures drain a
// scratchpad back into its region (counted inside Arrivals too — a
// departure *is* an arrival from local memory).
type MoveBreakdown struct {
	Global int64 `json:"global"`
	Local  int64 `json:"local"`

	Arrivals      int64 `json:"arrivals"`
	EvictToLocal  int64 `json:"evict_to_local"`
	EvictToGlobal int64 `json:"evict_to_global"`
	FromLocal     int64 `json:"from_local"`
	FromGlobal    int64 `json:"from_global"`

	EPRPairs          int64 `json:"epr_pairs"`
	PeakEPRBandwidth  int   `json:"peak_epr_bandwidth"`
	MaxLocalOccupancy int   `json:"max_local_occupancy"`
}

// SlackStats summarizes how far ops slipped past their ASAP level
// (scheduled step minus dependency depth): the schedule-quality price of
// every scheduler decision. Hist is linear with the last bucket open.
type SlackStats struct {
	Hist []int64 `json:"hist"`
	Max  int64   `json:"max"`
	Mean float64 `json:"mean"`
}

// GanttCell is one busy (step, region) point of the timeline.
type GanttCell struct {
	Step   int `json:"t"`
	Region int `json:"r"`
	Ops    int `json:"ops"`
	Qubits int `json:"qubits"`
}

// GanttMove is one move charged at the boundary entering Step. From/To
// are region indices, -1 for global memory; a non-global move always
// connects a region to its own scratchpad (From == To).
type GanttMove struct {
	Step   int  `json:"t"`
	From   int  `json:"from"`
	To     int  `json:"to"`
	Global bool `json:"global"`
}

// Gantt is the dense timeline of a short module, present only when the
// schedule fits ganttStepCap steps.
type Gantt struct {
	Steps          int         `json:"steps"`
	Cells          []GanttCell `json:"cells"`
	Moves          []GanttMove `json:"moves,omitempty"`
	MovesTruncated bool        `json:"moves_truncated,omitempty"`
}

// ModuleReport is the full analytics set of one reachable leaf module at
// the machine width the evaluation selected.
type ModuleReport struct {
	Name  string `json:"name"`
	Width int    `json:"width"` // regions available (k)
	D     int    `json:"d"`     // per-region data parallelism; 0 = unlimited
	Steps int    `json:"steps"`
	Ops   int    `json:"ops"`

	CriticalPath int64 `json:"critical_path"` // DAG bound on Steps
	Cycles       int64 `json:"cycles"`        // comm-expanded runtime
	StallCycles  int64 `json:"stall_cycles"`
	// CommOverheadFraction is StallCycles / Cycles.
	CommOverheadFraction float64 `json:"comm_overhead_fraction"`

	// Utilization is busy region-steps over Width x Steps; RegionUtil is
	// each region's busy fraction of the schedule.
	Utilization float64   `json:"utilization"`
	RegionUtil  []float64 `json:"region_util"`
	// OccupancyHist[b] counts timesteps with exactly b busy regions.
	OccupancyHist []int64 `json:"occupancy_hist"`
	// DFillHist[q] counts busy region-steps operating on exactly q
	// qubits (last bucket open-ended) — how full the d lanes run.
	DFillHist []int64 `json:"d_fill_hist"`

	Moves MoveBreakdown `json:"moves"`
	Slack SlackStats    `json:"slack"`

	// StepOccupancy is the busy-region count per timestep, capped at
	// seriesCap entries (Truncated marks the cut). Diff uses it to name
	// the first step two runs diverge at.
	StepOccupancy []int `json:"step_occupancy"`
	Truncated     bool  `json:"truncated,omitempty"`

	Gantt *Gantt `json:"gantt,omitempty"`
}

// Report is the versioned, self-contained profile of one evaluation.
type Report struct {
	Schema    int        `json:"schema"`
	Benchmark string     `json:"benchmark"`
	Scheduler string     `json:"scheduler"`
	K         int        `json:"k"`
	D         int        `json:"d"`
	Comm      CommConfig `json:"comm"`
	Totals    Totals     `json:"totals"`
	// Modules holds the reachable leaves, sorted by name.
	Modules []ModuleReport `json:"modules"`
}

// Analyze computes one leaf's analytics from its fine-grained schedule,
// dependency graph and communication analysis. It walks exactly the
// per-boundary move lists that verify.Moves replays, so for a schedule
// the oracle accepts the movement numbers here are the replayed ground
// truth.
func Analyze(name string, s *schedule.Schedule, g *dag.Graph, res *comm.Result) ModuleReport {
	nSteps := len(s.Steps)
	mr := ModuleReport{
		Name:          name,
		Width:         s.K,
		D:             s.D,
		Steps:         nSteps,
		Ops:           s.TotalOps(),
		CriticalPath:  int64(g.CriticalPath()),
		Cycles:        res.Cycles,
		StallCycles:   res.StallCycles(),
		RegionUtil:    make([]float64, s.K),
		OccupancyHist: make([]int64, s.K+1),
		DFillHist:     make([]int64, histCap),
	}
	if mr.Cycles > 0 {
		mr.CommOverheadFraction = float64(mr.StallCycles) / float64(mr.Cycles)
	}

	keepSeries := nSteps
	if keepSeries > seriesCap {
		keepSeries, mr.Truncated = seriesCap, true
	}
	mr.StepOccupancy = make([]int, keepSeries)

	busySteps := make([]int64, s.K)
	var busyRegionSteps int64
	for t := 0; t < nSteps; t++ {
		busy := 0
		for r, ops := range s.Steps[t].Regions {
			if len(ops) == 0 {
				continue
			}
			busy++
			busyRegionSteps++
			if r < len(busySteps) {
				busySteps[r]++
			}
			qubits := 0
			for _, op := range ops {
				qubits += len(s.M.Ops[op].Args)
			}
			mr.DFillHist[histBucket(qubits)]++
		}
		if busy < len(mr.OccupancyHist) {
			mr.OccupancyHist[busy]++
		}
		if t < keepSeries {
			mr.StepOccupancy[t] = busy
		}
	}
	if nSteps > 0 && s.K > 0 {
		mr.Utilization = float64(busyRegionSteps) / float64(int64(s.K)*int64(nSteps))
		for r := range mr.RegionUtil {
			mr.RegionUtil[r] = float64(busySteps[r]) / float64(nSteps)
		}
	}

	mr.Moves = breakdown(res)
	mr.Slack = slack(s, g)
	if nSteps > 0 && nSteps <= ganttStepCap {
		mr.Gantt = buildGantt(s, res)
	}
	return mr
}

// histBucket maps a count onto the linear-with-overflow histogram.
func histBucket(v int) int {
	if v < 0 {
		v = 0
	}
	if v >= histCap-1 {
		return histCap - 1
	}
	return v
}

// breakdown classifies the boundary move lists.
func breakdown(res *comm.Result) MoveBreakdown {
	mb := MoveBreakdown{
		EPRPairs:          res.EPRPairs,
		PeakEPRBandwidth:  res.PeakEPRBandwidth,
		MaxLocalOccupancy: res.MaxLocalOccupancy,
	}
	for _, bd := range res.Boundaries {
		for _, mv := range bd {
			if mv.Kind == comm.GlobalMove {
				mb.Global++
			} else {
				mb.Local++
			}
			switch mv.To.Kind {
			case comm.InRegion:
				mb.Arrivals++
			case comm.InLocal:
				mb.EvictToLocal++
			case comm.InGlobal:
				mb.EvictToGlobal++
			}
			switch mv.From.Kind {
			case comm.InLocal:
				mb.FromLocal++
			case comm.InGlobal:
				mb.FromGlobal++
			}
		}
	}
	return mb
}

// slack measures each op's scheduled step against its 1-based ASAP
// depth: slack 0 means the op ran as early as dependencies allow.
func slack(s *schedule.Schedule, g *dag.Graph) SlackStats {
	st := SlackStats{Hist: make([]int64, histCap)}
	at := s.StepOf()
	var total, n int64
	for i, t := range at {
		if t < 0 {
			continue
		}
		sl := int64(t) - int64(g.Depth[i]-1)
		if sl < 0 {
			sl = 0
		}
		st.Hist[histBucket(int(sl))]++
		total += sl
		n++
		if sl > st.Max {
			st.Max = sl
		}
	}
	if n > 0 {
		st.Mean = float64(total) / float64(n)
	}
	return st
}

// buildGantt flattens a short schedule into timeline cells plus its
// boundary moves for the HTML arrow overlay.
func buildGantt(s *schedule.Schedule, res *comm.Result) *Gantt {
	gt := &Gantt{Steps: len(s.Steps)}
	for t := range s.Steps {
		for r, ops := range s.Steps[t].Regions {
			if len(ops) == 0 {
				continue
			}
			qubits := 0
			for _, op := range ops {
				qubits += len(s.M.Ops[op].Args)
			}
			gt.Cells = append(gt.Cells, GanttCell{Step: t, Region: r, Ops: len(ops), Qubits: qubits})
		}
	}
	for t, bd := range res.Boundaries {
		for _, mv := range bd {
			if len(gt.Moves) >= ganttMoveCap {
				gt.MovesTruncated = true
				return gt
			}
			gt.Moves = append(gt.Moves, GanttMove{
				Step:   t,
				From:   ganttLane(mv.From),
				To:     ganttLane(mv.To),
				Global: mv.Kind == comm.GlobalMove,
			})
		}
	}
	return gt
}

// ganttLane maps a residence onto a timeline lane: its region, or -1
// for global memory (drawn as a rail below the regions).
func ganttLane(l comm.Loc) int {
	if l.Kind == comm.InGlobal {
		return -1
	}
	return int(l.Region)
}

// Validate checks the report's schema version and structural invariants
// (modules sorted and self-consistent). It is the same gate CI applies
// to emitted JSON artifacts.
func (r *Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("report: schema version %d, this toolflow reads %d", r.Schema, SchemaVersion)
	}
	if r.K < 1 {
		return fmt.Errorf("report: k = %d, want >= 1", r.K)
	}
	for i, m := range r.Modules {
		if i > 0 && r.Modules[i-1].Name >= m.Name {
			return fmt.Errorf("report: modules out of order at %q", m.Name)
		}
		if m.Steps < 0 || m.Cycles < int64(m.Steps) {
			return fmt.Errorf("report: module %q: %d cycles for %d steps", m.Name, m.Cycles, m.Steps)
		}
		if m.Utilization < 0 || m.Utilization > 1 {
			return fmt.Errorf("report: module %q: utilization %f outside [0,1]", m.Name, m.Utilization)
		}
		if m.CommOverheadFraction < 0 || m.CommOverheadFraction > 1 {
			return fmt.Errorf("report: module %q: comm overhead fraction %f outside [0,1]", m.Name, m.CommOverheadFraction)
		}
	}
	return nil
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteJSONFile writes the JSON rendering to path.
func (r *Report) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads and validates a JSON report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return r, nil
}
