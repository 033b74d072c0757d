package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestAccessLogRotate exercises the operational rotation sequence —
// rename the live file aside, Reopen (the SIGHUP handler's half), keep
// logging — while writers hammer the log concurrently. Every line must
// land whole in exactly one of the two files: none dropped, none split,
// none interleaved.
func TestAccessLogRotate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.log")
	l, err := NewAccessLogFile(path)
	if err != nil {
		t.Fatalf("NewAccessLogFile: %v", err)
	}
	defer l.Close()

	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	rotated := path + ".1"
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				l.Log(&RequestRecord{ID: fmt.Sprintf("w%d-%d", w, i), Endpoint: "compile", Status: 200})
			}
		}(w)
	}
	// Rotate mid-stream, racing the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := os.Rename(path, rotated); err != nil {
			t.Errorf("rename: %v", err)
			return
		}
		if err := l.Reopen(); err != nil {
			t.Errorf("Reopen: %v", err)
		}
	}()
	close(start)
	wg.Wait()

	seen := map[string]bool{}
	total := 0
	for _, p := range []string{rotated, path} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var e RequestRecord
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("%s holds a non-JSON line (split or interleaved): %q", p, sc.Text())
			}
			if seen[e.ID] {
				t.Fatalf("line %s appears twice", e.ID)
			}
			seen[e.ID] = true
			total++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if total != writers*perWriter {
		t.Fatalf("%d lines across both files, want %d (lines dropped)", total, writers*perWriter)
	}
	// Post-rotation lines must land in the fresh file, not the renamed one.
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		l.Log(&RequestRecord{ID: "post-rotate", Endpoint: "healthz", Status: 200})
		if fi2, err2 := os.Stat(path); err2 != nil || fi2.Size() == 0 {
			t.Fatalf("fresh file empty after rotation (stat: %v %v)", err, err2)
		}
	}
}

func TestAccessLogReopenNonFileNoop(t *testing.T) {
	var nilLog *AccessLog
	if err := nilLog.Reopen(); err != nil {
		t.Fatalf("nil Reopen: %v", err)
	}
	if err := nilLog.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	l := NewAccessLog(os.Stderr)
	if err := l.Reopen(); err != nil {
		t.Fatalf("non-file Reopen: %v", err)
	}
}
