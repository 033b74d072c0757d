package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestDecisionLogLevels(t *testing.T) {
	l := NewDecisionLog(LevelStep)
	if !l.Enabled(LevelStep) {
		t.Error("step log rejects step records")
	}
	if l.Enabled(LevelOp) {
		t.Error("step log accepts op records")
	}
	if l.Enabled(LevelOff) {
		t.Error("Enabled(LevelOff) must be false")
	}
	l.Record(LevelStep, Decision{Scheduler: "rcp", Module: "m", Reason: ReasonChosen})
	l.Record(LevelOp, Decision{Scheduler: "rcp", Module: "m", Reason: ReasonDBudget})
	if got := l.Len(); got != 1 {
		t.Fatalf("len = %d, want 1 (op record must be dropped)", got)
	}
	if got := l.Entries()[0].Reason; got != ReasonChosen {
		t.Errorf("kept record's reason = %v, want chosen", got)
	}
}

func TestDecisionLogRender(t *testing.T) {
	l := NewDecisionLog(LevelOp)
	l.Record(LevelOp, Decision{
		Scheduler: "lpfs", Module: "leaf0", Step: 12, Region: 0, Op: 34,
		Reason: ReasonDBudget, Detail: "needs 2, 7/8 used",
	})
	l.Record(LevelStep, Decision{
		Scheduler: "lpfs", Module: "leaf0", Step: 13, Region: 1, Op: -1,
		Reason: ReasonRefill,
	})
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "lpfs leaf0 step 12 region 0 op 34 d-budget: needs 2, 7/8 used") {
		t.Errorf("missing op line:\n%s", out)
	}
	if !strings.Contains(out, "lpfs leaf0 step 13 region 1 op - refill") {
		t.Errorf("missing step line (op -1 renders as -):\n%s", out)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"": LevelOff, "off": LevelOff, "step": LevelStep, "op": LevelOp, "OP": LevelOp,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel accepted unknown level")
	}
}

func TestReasonStrings(t *testing.T) {
	for _, r := range []Reason{ReasonChosen, ReasonDBudget, ReasonRegionPinned,
		ReasonSlackLost, ReasonHeadStalled, ReasonForced, ReasonRefill} {
		if r.String() == "unknown" {
			t.Errorf("reason %d has no name", r)
		}
	}
}

func TestDecisionLogConcurrent(t *testing.T) {
	l := NewDecisionLog(LevelOp)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(LevelOp, Decision{Scheduler: "rcp", Op: int32(i)})
			}
		}()
	}
	wg.Wait()
	if got := l.Len(); got != 800 {
		t.Errorf("len = %d, want 800", got)
	}
}

// TestDisabledDecisionLogAllocatesNothing guards the nil-log fast path
// every production schedule run takes.
func TestDisabledDecisionLogAllocatesNothing(t *testing.T) {
	var l *DecisionLog
	allocs := testing.AllocsPerRun(1000, func() {
		if l.Enabled(LevelOp) {
			t.Fatal("nil log enabled")
		}
		l.Record(LevelStep, Decision{})
		if l.Len() != 0 {
			t.Fatal("nil log non-empty")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled decision log allocates %v times per op, want 0", allocs)
	}
}

func TestNilObserverAccessors(t *testing.T) {
	var o *Observer
	if o.T() != nil || o.M() != nil || o.D() != nil {
		t.Error("nil observer returned non-nil components")
	}
}
