package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/server"
)

// childMarker, set in the environment, turns a re-executed test binary
// into the daemon: TestMain runs main() instead of the tests, so the
// end-to-end test drives the real flag wiring and signal handling
// without building a separate binary.
const childMarker = "QSCHEDD_E2E_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childMarker) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one qschedd child process listening on a kernel-picked port.
type daemon struct {
	url    string
	proc   *os.Process
	exited chan error // Wait's result, once stderr is drained
}

// startDaemon boots qschedd with args and waits for its bound address.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), childMarker+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() }) // a stopped daemon has already exited
	d := &daemon{proc: cmd.Process, exited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "qschedd: serving on "); ok {
				addr <- a
			}
			fmt.Fprintln(os.Stderr, sc.Text())
		}
		d.exited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case err := <-d.exited:
		t.Fatalf("qschedd exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("qschedd never printed its address")
	}
	return d
}

// stop sends SIGTERM and requires the drain to end in a zero exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.proc.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			t.Fatalf("qschedd exit after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("qschedd still running 30s after SIGTERM")
	}
}

// call GETs url (POSTs body when non-empty) and decodes the 200 reply.
func call(t *testing.T, url, id, body string, out any) {
	t.Helper()
	method := http.MethodGet
	if body != "" {
		method = http.MethodPost
	}
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d %v %s", method, url, resp.StatusCode, err, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func fileHas(path, s string) bool {
	data, err := os.ReadFile(path)
	return err == nil && strings.Contains(string(data), s)
}

// TestDaemonEndToEnd boots the real daemon and checks what only a
// process can show: SIGHUP log rotation, the SIGTERM drain and its
// postmortem, a restart over the same cache and telemetry directories,
// and that the committed preload corpus serves every gated benchmark.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "access.log")
	telemDir := filepath.Join(dir, "telem")
	args := []string{"-cache-dir", filepath.Join(dir, "cache"), "-cache-mem-budget", "64MiB",
		"-telemetry-dir", telemDir, "-sample-every", "50ms", "-slow-threshold", "1ms"}
	const body = `{"bench":"SHA-1","scheduler":"lpfs","k":4}`

	// Rotation: rename the live log aside and SIGHUP; the next line
	// lands in a fresh file at the original path.
	d := startDaemon(t, append(args, "-access-log", logPath)...)
	var first server.CompileResponse
	call(t, d.url+"/v1/compile", "rotate-1", body, &first)
	if first.Metrics.TotalGates == 0 {
		t.Fatalf("degenerate metrics: %+v", first.Metrics)
	}
	waitFor(t, "rotate-1 in the access log", func() bool { return fileHas(logPath, "rotate-1") })
	if err := os.Rename(logPath, logPath+".1"); err != nil {
		t.Fatal(err)
	}
	if err := d.proc.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the reopened access log", func() bool { _, err := os.Stat(logPath); return err == nil })
	call(t, d.url+"/v1/compile", "rotate-2", body, &server.CompileResponse{})
	waitFor(t, "rotate-2 in the fresh log", func() bool { return fileHas(logPath, "rotate-2") })
	if fileHas(logPath, "rotate-1") || fileHas(logPath+".1", "rotate-2") {
		t.Error("request ids crossed the rotation")
	}

	// Shutdown: read a history window that ends safely behind the
	// sampler, then SIGTERM drains, seals the store and exits zero.
	var before server.MetricsRangeResponse
	var window string
	waitFor(t, "two sampled points", func() bool {
		window = fmt.Sprintf("name=server.requests&from=%d&to=%d",
			time.Now().Add(-time.Minute).UnixMilli(), time.Now().Add(-500*time.Millisecond).UnixMilli())
		call(t, d.url+"/v1/metrics/range?"+window, "", "", &before)
		return len(before.Points) >= 2
	})
	d.stop(t)
	if pms, _ := filepath.Glob(filepath.Join(telemDir, "postmortem", "pm-*-slow.json")); len(pms) == 0 {
		t.Error("no slow postmortem bundle after the 1ms-threshold compile")
	}

	// Restart over the same directories: the repeat compile is served
	// from disk, and the pre-restart history reads back unchanged.
	d = startDaemon(t, append(args, "-cache-preload", "../../bench/baselines/cas")...)
	var again server.CompileResponse
	call(t, d.url+"/v1/compile", "", body, &again)
	if !reflect.DeepEqual(again.Metrics, first.Metrics) {
		t.Errorf("metrics drifted across restart:\n%+v\n%+v", first.Metrics, again.Metrics)
	}
	var st server.DebugStateResponse
	call(t, d.url+"/v1/debug/state", "", "", &st)
	if c := st.Cache; c.DiskHits == 0 || c.CommMisses != 0 || c.SchedMisses != 0 {
		t.Errorf("restart recomputed instead of reading disk: %+v", c)
	}
	var after server.MetricsRangeResponse
	call(t, d.url+"/v1/metrics/range?"+window, "", "", &after)
	if !reflect.DeepEqual(after.Points, before.Points) {
		t.Errorf("history diverged across restart:\n%+v\n%+v", before.Points, after.Points)
	}

	// Corpus: every gated benchmark at request defaults is a preload hit.
	for _, b := range bench.Gated() {
		var cr server.CompileResponse
		call(t, d.url+"/v1/compile", "", fmt.Sprintf(`{"bench":%q}`, b.Name), &cr)
		call(t, d.url+"/v1/debug/state", "", "", &st)
		if c := st.Cache; cr.Metrics.TotalGates == 0 || c.CommMisses != 0 || c.SchedMisses != 0 {
			t.Errorf("%s: gates %d, want comm/sched misses 0 since restart: %+v", b.Name, cr.Metrics.TotalGates, c)
		}
	}
	d.stop(t)
}
