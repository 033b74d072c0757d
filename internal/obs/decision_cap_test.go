package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestDecisionLogCap pins the retention limit: records past the cap are
// counted, not kept, and the text rendering notes the drop.
func TestDecisionLogCap(t *testing.T) {
	l := NewDecisionLogLimit(LevelStep, 3)
	for i := 0; i < 10; i++ {
		l.Record(LevelStep, Decision{Scheduler: "rcp", Module: "m", Step: i, Op: -1})
	}
	if l.Len() != 3 {
		t.Errorf("kept %d records, want 3", l.Len())
	}
	if l.Dropped() != 7 {
		t.Errorf("dropped %d, want 7", l.Dropped())
	}
	// The head of the run survives.
	for i, d := range l.Entries() {
		if d.Step != i {
			t.Errorf("entry %d has step %d; the cap must keep the head", i, d.Step)
		}
	}

	var text strings.Builder
	if _, err := l.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "# dropped 7 decisions") {
		t.Errorf("text rendering lacks the drop note:\n%s", text.String())
	}
}

// TestDecisionLogAppendBuffers pins the merge of per-task buffers:
// appending them in order keeps what one log recording every record in
// that order keeps, drops what it drops, and stamps the request id.
func TestDecisionLogAppendBuffers(t *testing.T) {
	whole := NewDecisionLogLimit(LevelStep, 5)
	merged := NewDecisionLogLimit(LevelStep, 5)
	step := 0
	for _, n := range []int{3, 7, 2} { // the second buffer overflows the limit itself
		b := merged.Buffer()
		for i := 0; i < n; i++ {
			d := Decision{Scheduler: "rcp", Module: "m", Step: step, Op: -1}
			whole.Record(LevelStep, d)
			b.Record(LevelStep, d)
			step++
		}
		merged.Append(b, "req-1")
	}
	merged.Append(nil, "req-1")
	if merged.Len() != 5 || merged.Dropped() != 7 || whole.Dropped() != 7 {
		t.Fatalf("merged kept %d, dropped %d; one log dropped %d (want 5, 7, 7)", merged.Len(), merged.Dropped(), whole.Dropped())
	}
	for i, d := range merged.Entries() {
		if want := whole.Entries()[i]; d.Step != want.Step || d.Request != "req-1" {
			t.Errorf("entry %d = step %d request %q, want step %d request req-1", i, d.Step, d.Request, want.Step)
		}
	}
	var nilLog *DecisionLog
	if nilLog.Buffer() != nil {
		t.Error("the disabled log's buffer is not disabled")
	}
}

func TestDecisionLogCapConcurrent(t *testing.T) {
	l := NewDecisionLogLimit(LevelOp, 100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(LevelOp, Decision{Scheduler: "lpfs", Module: "m", Step: i})
			}
		}()
	}
	wg.Wait()
	if l.Len() != 100 {
		t.Errorf("kept %d, want exactly the 100-record cap", l.Len())
	}
	if l.Dropped() != 700 {
		t.Errorf("dropped %d, want 700", l.Dropped())
	}
}

// TestDecisionLogDefaultsCapped guards against NewDecisionLog quietly
// reverting to unbounded growth — the Shor's-scale OOM this cap exists
// to prevent.
func TestDecisionLogDefaultsCapped(t *testing.T) {
	l := NewDecisionLog(LevelOp)
	if l.limit != DefaultDecisionLimit {
		t.Errorf("default limit %d, want %d", l.limit, DefaultDecisionLimit)
	}
	// Explicit no-limit opt-out stays available.
	u := NewDecisionLogLimit(LevelOp, 0)
	for i := 0; i < 10; i++ {
		u.Record(LevelOp, Decision{})
	}
	if u.Len() != 10 || u.Dropped() != 0 {
		t.Errorf("unlimited log kept %d / dropped %d", u.Len(), u.Dropped())
	}
}

// TestReasonParseInvertsString: every reason parses back from its name,
// and its JSON form (the access log's decisions) is that name and
// decodes back; an unknown name is rejected either way.
func TestReasonParseInvertsString(t *testing.T) {
	for r := ReasonChosen; r <= ReasonRefill; r++ {
		back, err := ParseReason(r.String())
		if err != nil || back != r {
			t.Errorf("reason %d: parse(%q) = %v, %v", r, r.String(), back, err)
		}
		b, err := json.Marshal(r)
		if err != nil || string(b) != `"`+r.String()+`"` {
			t.Errorf("reason %d: JSON %s, %v; want its quoted name", r, b, err)
		}
		var dec Reason
		if err := json.Unmarshal(b, &dec); err != nil || dec != r {
			t.Errorf("reason %d: JSON decode of %s = %v, %v", r, b, dec, err)
		}
	}
	if _, err := ParseReason("unknown"); err == nil {
		t.Error("\"unknown\" parsed as a reason")
	}
	var dec Reason
	if err := json.Unmarshal([]byte(`"telepathy"`), &dec); err == nil {
		t.Error("unknown reason accepted from JSON")
	}
}
