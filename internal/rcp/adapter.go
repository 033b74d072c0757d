package rcp

import (
	"fmt"

	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

// Scheduler adapts the RCP algorithm to the schedule.Scheduler
// interface. The zero value runs the paper's default weights; Opts
// carries tuning for ablations (its K and D fields are ignored — the
// interface call supplies them).
type Scheduler struct {
	Opts Options
}

// New returns an RCP scheduler with the given tuning.
func New(opts Options) Scheduler { return Scheduler{Opts: opts} }

// Name implements schedule.Scheduler.
func (s Scheduler) Name() string { return "rcp" }

// String renders the scheduler for diagnostics and reports.
func (s Scheduler) String() string { return s.Name() }

// Config renders the tuning knobs canonically, for cache keys. The
// decision log is dropped first: logging never changes the schedule, so
// a logging and a non-logging run must share cache entries (and a
// pointer's address would poison the key anyway).
func (s Scheduler) Config() string {
	o := s.Opts
	o.Log = nil
	if o == (Options{}) {
		return zeroConfig
	}
	return fmt.Sprintf("rcp%+v", o)
}

// zeroConfig is Config of the zero options, the paper's configuration
// and the one every engine uses unless tuned: rendered once, not per
// engine.
var zeroConfig = fmt.Sprintf("rcp%+v", Options{})

// WithDecisionLog returns a copy of the scheduler that records its
// placement decisions into l (see Options.Log).
func (s Scheduler) WithDecisionLog(l *obs.DecisionLog) schedule.Scheduler {
	s.Opts.Log = l
	return s
}

// Schedule implements schedule.Scheduler.
func (s Scheduler) Schedule(m *ir.Module, g *dag.Graph, k, d int) (*schedule.Schedule, error) {
	o := s.Opts
	o.K, o.D = k, d
	return Schedule(m, g, o)
}

func init() { schedule.Register(Scheduler{}) }
