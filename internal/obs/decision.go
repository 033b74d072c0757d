package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Level grades decision-log verbosity. The zero value is off; schedulers
// check Enabled(level) before building a record, so a disabled log costs
// one nil check on the hot path.
type Level int32

const (
	// LevelOff records nothing (the nil log's level).
	LevelOff Level = iota
	// LevelStep records one entry per placement decision: which group
	// won a region and why (plus structural events: refills, forced
	// placements).
	LevelStep
	// LevelOp additionally records per-op deferrals: d-budget
	// exhaustion, pinned-path claims, slack-priority losses, stalled
	// path heads.
	LevelOp
)

// ParseLevel maps a flag string onto a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "", "off":
		return LevelOff, nil
	case "step":
		return LevelStep, nil
	case "op":
		return LevelOp, nil
	}
	return LevelOff, fmt.Errorf("obs: unknown decision level %q (off, step, op)", s)
}

// Reason classifies why a scheduler acted on (or declined to act on) an
// op.
type Reason uint8

const (
	// ReasonChosen marks a winning (group, region) placement.
	ReasonChosen Reason = iota
	// ReasonDBudget marks an op deferred because the region's data
	// parallelism budget d was exhausted.
	ReasonDBudget
	// ReasonRegionPinned marks a ready op that could not run because a
	// pinned longest-path claims it for a dedicated region (LPFS).
	ReasonRegionPinned
	// ReasonSlackLost marks an op that outweighed the winner before the
	// slack penalty and lost to it after (RCP).
	ReasonSlackLost
	// ReasonHeadStalled marks a pinned path whose head op is not ready,
	// idling its dedicated region (LPFS).
	ReasonHeadStalled
	// ReasonForced marks deadlock avoidance: an op ripped out of a
	// pinned path and executed to guarantee progress (LPFS).
	ReasonForced
	// ReasonRefill marks a dedicated region extracting a fresh longest
	// path after finishing its previous one (LPFS).
	ReasonRefill
)

// String names the reason for log rendering.
func (r Reason) String() string {
	switch r {
	case ReasonChosen:
		return "chosen"
	case ReasonDBudget:
		return "d-budget"
	case ReasonRegionPinned:
		return "region-pinned"
	case ReasonSlackLost:
		return "slack-lost"
	case ReasonHeadStalled:
		return "head-stalled"
	case ReasonForced:
		return "forced"
	case ReasonRefill:
		return "refill"
	}
	return "unknown"
}

// ParseReason inverts String; JSON decoding goes through it.
func ParseReason(s string) (Reason, error) {
	for r := ReasonChosen; r <= ReasonRefill; r++ {
		if r.String() == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("obs: unknown decision reason %q", s)
}

// MarshalJSON renders the reason as its string name, keeping JSON
// records (the access log's decisions) readable and stable if the enum
// ever reorders.
func (r Reason) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.String())
}

// UnmarshalJSON parses the string form.
func (r *Reason) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseReason(s)
	if err != nil {
		return err
	}
	*r = parsed
	return nil
}

// Decision is one scheduler introspection record.
type Decision struct {
	Scheduler string `json:"scheduler"`
	Module    string `json:"module"`
	Step      int    `json:"step"`
	Region    int    `json:"region"`
	Op        int32  `json:"op"` // op index within the module; -1 when not op-specific
	Reason    Reason `json:"reason"`
	Detail    string `json:"detail,omitempty"`
	// Request is the request id of the service request whose evaluation
	// produced this decision (empty outside the service).
	Request string `json:"request_id,omitempty"`
}

// DefaultDecisionLimit caps NewDecisionLog's retention. Shor's-scale
// benchmarks at LevelOp emit a decision per deferred op per step —
// unbounded retention would eat the heap long before the run finishes;
// a million records (~80MB worst case) keeps every realistic debugging
// session intact while bounding the pathological ones.
const DefaultDecisionLimit = 1 << 20

// DecisionLog accumulates scheduler decisions at or below its level,
// keeping at most its limit and counting the overflow (Dropped). A nil
// *DecisionLog is the disabled log: Enabled is false and Record no-ops.
// Safe for concurrent use; the engine's tasks each record into a Buffer
// it Appends in task order, so the log is the same at any worker count.
type DecisionLog struct {
	level   Level
	limit   int
	mu      sync.Mutex
	entries []Decision
	dropped int64
}

// NewDecisionLog returns a log recording entries at or below level,
// retaining at most DefaultDecisionLimit records.
func NewDecisionLog(level Level) *DecisionLog {
	return NewDecisionLogLimit(level, DefaultDecisionLimit)
}

// NewDecisionLogLimit returns a log retaining at most limit records
// (<= 0: unlimited). Records past the limit are counted, not kept.
func NewDecisionLogLimit(level Level, limit int) *DecisionLog {
	return &DecisionLog{level: level, limit: limit}
}

// Enabled reports whether records at lv are kept. Schedulers gate
// record construction behind this so the disabled path does no work.
func (l *DecisionLog) Enabled(lv Level) bool {
	return l != nil && lv != LevelOff && l.level >= lv
}

// Record appends d when the log accepts records at lv. Past the
// retention limit it only counts: the head of a run is the part that
// explains a schedule, and a bounded log can't keep both ends.
func (l *DecisionLog) Record(lv Level, d Decision) {
	if !l.Enabled(lv) {
		return
	}
	l.mu.Lock()
	l.add(d)
	l.mu.Unlock()
}

// add keeps d, or counts it once the limit is reached. l.mu is held.
func (l *DecisionLog) add(d Decision) {
	if l.limit > 0 && len(l.entries) >= l.limit {
		l.dropped++
	} else {
		l.entries = append(l.entries, d)
	}
}

// Buffer returns an empty log with l's level and limit: the one a
// single task records into before Append merges it into l (nil for the
// disabled log).
func (l *DecisionLog) Buffer() *DecisionLog {
	if l == nil {
		return nil
	}
	return NewDecisionLogLimit(l.level, l.limit)
}

// Append adds b's records to l in b's order, as though they had been
// recorded here: each is stamped with request (the id of the service
// request whose evaluation produced it; "" outside the service), l's
// limit applies to them in turn, and what it turns away, plus b's own
// Dropped, adds to l's Dropped. A nil b appends nothing.
func (l *DecisionLog) Append(b *DecisionLog, request string) {
	if l == nil || b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, d := range b.entries {
		d.Request = request
		l.add(d)
	}
	l.dropped += b.dropped
}

// Dropped reports how many records the retention limit discarded.
func (l *DecisionLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Len reports the number of records kept.
func (l *DecisionLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Entries copies the recorded decisions in record order.
func (l *DecisionLog) Entries() []Decision {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Decision, len(l.entries))
	copy(out, l.entries)
	return out
}

// WriteTo renders the log as one text line per decision:
//
//	lpfs BF.leaf0 step 12 region 0 op 34 d-budget: needs 2, 7/8 used
func (l *DecisionLog) WriteTo(w io.Writer) (int64, error) {
	if l == nil {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, d := range l.entries {
		op := fmt.Sprint(d.Op)
		if d.Op < 0 {
			op = "-"
		}
		line := fmt.Sprintf("%s %s step %d region %d op %s %s",
			d.Scheduler, d.Module, d.Step, d.Region, op, d.Reason)
		if d.Detail != "" {
			line += ": " + d.Detail
		}
		n, err := fmt.Fprintln(w, line)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	if l.dropped > 0 {
		n, err := fmt.Fprintf(w, "# dropped %d decisions past the %d-record limit\n", l.dropped, l.limit)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// WriteFile renders the log to path.
func (l *DecisionLog) WriteFile(path string) error {
	if l == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := l.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
