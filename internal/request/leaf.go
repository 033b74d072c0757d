package request

import (
	"fmt"
	"strings"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/epr"
	"github.com/scaffold-go/multisimd/internal/ir"
)

// LeafModule resolves name to a leaf module of prog — only leaves have a
// fine-grained schedule. An unknown name's error lists the leaves.
func LeafModule(prog *ir.Program, name string) (*ir.Module, error) {
	mod := prog.Module(name)
	if mod == nil {
		var leaves []string
		for _, n := range prog.Order {
			if prog.Modules[n].IsLeaf() {
				leaves = append(leaves, n)
			}
		}
		return nil, fmt.Errorf("no module %q; leaf modules: %s", name, strings.Join(leaves, ", "))
	}
	if !mod.IsLeaf() {
		return nil, fmt.Errorf("module %q is not a leaf; only leaf modules have a fine-grained schedule", name)
	}
	return mod, nil
}

// LeafSchedule is one leaf module's fine-grained schedule under a
// request's machine and communication model: what qsched -dump prints
// and qschedd's /v1/schedule serves.
type LeafSchedule struct {
	Ops, CriticalPath, Steps int
	Comm                     *comm.Result
	EPR                      epr.Config
	Plan                     *epr.Plan
	// Text is the paper's timestep/region/move-list rendering.
	Text string
}

// ScheduleLeaf schedules mod with sched on the config's
// Multi-SIMD(k,d) machine, analyzes its movement under Comm(), and plans
// EPR pre-distribution at EPRBandwidth pairs per cycle (unset: 2),
// latency 1.
func (c Config) ScheduleLeaf(mod *ir.Module, sched core.Scheduler) (*LeafSchedule, error) {
	mat, g, err := core.MaterializeLeaf(mod)
	if err != nil {
		return nil, err
	}
	s, err := sched.Schedule(mat, g, c.K, c.D)
	if err != nil {
		return nil, err
	}
	res, err := comm.Analyze(s, c.Comm())
	if err != nil {
		return nil, err
	}
	cfg := epr.Config{Bandwidth: 2, Latency: 1}
	if c.EPRBandwidth > 0 {
		cfg.Bandwidth = c.EPRBandwidth
	}
	plan, err := epr.Build(s, res, cfg)
	if err != nil {
		return nil, err
	}
	var text strings.Builder
	if err := comm.WriteSchedule(&text, s, res); err != nil {
		return nil, err
	}
	return &LeafSchedule{
		Ops: g.Len(), CriticalPath: g.CriticalPath(), Steps: s.Length(),
		Comm: res, EPR: cfg, Plan: plan, Text: text.String(),
	}, nil
}
