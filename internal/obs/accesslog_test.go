package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestAccessLogWritesJSONLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf)
	l.Log(&RequestRecord{
		Time: "2026-01-02T03:04:05.678Z", ID: "demo", Endpoint: "compile",
		Method: "POST", Path: "/v1/compile", Status: 200, Bytes: 42, DurMS: 1.5,
		Role: "solo", Fingerprint: "deadbeef",
		Cache: &AccessCache{CommHits: 1, SchedMisses: 2},
	})
	l.Log(&RequestRecord{ID: "second", Endpoint: "healthz", Status: 200})

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var e map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if e["id"] != "demo" || e["endpoint"] != "compile" || e["status"] != float64(200) {
		t.Errorf("unexpected first record: %v", e)
	}
	cache, ok := e["cache"].(map[string]any)
	if !ok || cache["comm_hits"] != float64(1) || cache["sched_misses"] != float64(2) {
		t.Errorf("cache block = %v", e["cache"])
	}
	// Omitempty: the second record has no evaluation fields.
	if strings.Contains(lines[1], "role") || strings.Contains(lines[1], "cache") {
		t.Errorf("empty fields not omitted: %s", lines[1])
	}
}

// TestAccessLogDropsPostmortemPayload: a record's spans and decisions
// never reach the line, and its phases only do on a slow request.
func TestAccessLogDropsPostmortemPayload(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf)
	rec := &RequestRecord{
		ID: "full", Endpoint: "compile", Status: 200,
		Phases:    []PhaseSummary{{Cat: "engine", Name: "evaluate", Count: 1, MS: 2}},
		Spans:     []SpanEvent{{Cat: "engine", Name: "evaluate", DurUS: 2000}},
		Decisions: []Decision{{Module: "main", Step: 1}},
	}
	l.Log(rec)
	rec.Slow = true
	l.Log(rec)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	for i, want := range []bool{false, true} {
		var m map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &m); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if _, ok := m["spans"]; ok {
			t.Errorf("line %d carries spans: %s", i, lines[i])
		}
		if _, ok := m["decisions"]; ok {
			t.Errorf("line %d carries decisions: %s", i, lines[i])
		}
		if _, ok := m["phases"]; ok != want {
			t.Errorf("line %d phases present=%v, want %v: %s", i, ok, want, lines[i])
		}
	}
	if len(rec.Spans) == 0 || len(rec.Decisions) == 0 {
		t.Error("Log mutated the caller's record")
	}
}

func TestAccessLogNilDisabled(t *testing.T) {
	var l *AccessLog
	l.Log(&RequestRecord{ID: "x"}) // must not panic
	if NewAccessLog(nil) != nil {
		t.Error("NewAccessLog(nil) returned a live logger")
	}
}

func TestAccessLogConcurrentLinesStayWhole(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Log(&RequestRecord{ID: "concurrent", Endpoint: "compile", Status: 200})
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for i, line := range lines {
		var e RequestRecord
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d torn: %v: %s", i, err, line)
		}
	}
}
