// Command qschedd is the compile service: a long-running daemon that
// serves the Multi-SIMD pipeline over a versioned HTTP/JSON API.
// Concurrent requests share one evaluation cache, identical in-flight
// requests are coalesced into a single engine run, and admission
// control bounds concurrent work (429 + Retry-After past the queue).
//
// Endpoints (see DESIGN.md "Service boundary"):
//
//	POST /v1/compile     evaluate a program or benchmark -> metrics
//	POST /v1/schedule    fine-grained schedule of one leaf module
//	POST /v1/report      full schedule report (versioned JSON analytics)
//	POST /v1/verify      evaluation with the legality oracle forced on
//	GET  /v1/healthz     liveness, queue depth, cache statistics
//	GET  /v1/version     service/API versions, schedulers, benchmarks
//	GET  /v1/debug/state live snapshot: flights, queue, cache, runtime
//	GET  /v1/metrics/range historical metrics from the persistent store
//	POST /v1/debug/snapshot freeze a postmortem bundle right now
//	GET  /v1/dashboard   self-contained HTML ops dashboard
//	GET  /metrics        Prometheus text metrics (/metrics.json for JSON)
//	GET  /debug/pprof/   net/http/pprof, on the same port
//
// Usage:
//
//	qschedd -addr :8080 -max-inflight 4 -queue 16 -access-log -
//
// The "serving on" line on stderr names the bound address, so -addr
// 127.0.0.1:0 serves on a free port and reports which.
//
// Every request carries an X-Request-ID (accepted from the caller or
// generated), echoed in the response header and envelope and stamped on
// the access-log line, so one id correlates the client's view with
// everything the server did.
//
// Shutdown: SIGINT/SIGTERM stops accepting connections, drains
// in-flight evaluations up to -shutdown-timeout, then aborts the rest.
// SIGHUP reopens a file-backed access log (log rotation).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/obs/telem"
	"github.com/scaffold-go/multisimd/internal/server"
)

func main() {
	var (
		addr            = flag.String("addr", ":8080", "listen `address` (host:port)")
		maxInflight     = flag.Int("max-inflight", 0, "max concurrent evaluations (0 = GOMAXPROCS)")
		queue           = flag.Int("queue", 0, "max evaluations waiting for a slot before 429 (0 = 4x max-inflight, negative = none)")
		timeout         = flag.Duration("request-timeout", 2*time.Minute, "per-evaluation deadline")
		workers         = flag.Int("workers", 0, "engine worker-pool size per evaluation (0 = engine default)")
		shutdownTimeout = flag.Duration("shutdown-timeout", 30*time.Second, "grace period for in-flight work on SIGINT/SIGTERM")
		accessLog       = flag.String("access-log", "", "structured JSON access log `sink`: - or stdout, stderr, a file path; empty = off")
		slowThreshold   = flag.Duration("slow-threshold", time.Second, "requests at or over this wall time log their per-phase breakdown (negative = off)")
		sampleEvery     = flag.Duration("sample-every", 2*time.Second, "runtime sampler and dashboard history period (negative = off)")
		cacheDir        = flag.String("cache-dir", "", "`directory` for the persistent result store; empty = memory only (cold every restart)")
		cacheMemBudget  = flag.String("cache-mem-budget", "", "in-memory cache byte budget, e.g. 256MiB or 512k; empty = unbounded")
		cacheMemEntries = flag.Int("cache-mem-entries", 0, "in-memory cache entry budget (0 = unbounded)")
		cacheDiskBudget = flag.String("cache-disk-budget", "", "on-disk store byte budget enforced by background compaction; empty = unbounded")
		cachePreload    = flag.String("cache-preload", "", "read-only seed store `directory` served below -cache-dir (e.g. a committed corpus)")
		telemetryDir    = flag.String("telemetry-dir", "", "`directory` for the persistent metrics store and postmortem bundles; empty = history lives only in memory")
		telemetryRet    = flag.Duration("telemetry-retention", 24*time.Hour, "drop persisted samples older than this (negative = keep forever)")
		telemetryBudget = flag.String("telemetry-budget", "64MiB", "telemetry store byte budget; old segments downsample then drop to stay under it (empty = unbounded)")
		snapshotOnSlow  = flag.Bool("snapshot-on-slow", true, "write a postmortem bundle automatically on slow, error, and 429 responses")
	)
	flag.Parse()

	memBudget, err := parseByteSize(*cacheMemBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qschedd: -cache-mem-budget:", err)
		os.Exit(1)
	}
	diskBudget, err := parseByteSize(*cacheDiskBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qschedd: -cache-disk-budget:", err)
		os.Exit(1)
	}
	cache, err := core.OpenEvalCache(core.CacheConfig{
		Dir:        *cacheDir,
		Preload:    *cachePreload,
		MemEntries: *cacheMemEntries,
		MemBytes:   memBudget,
		DiskBytes:  diskBudget,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qschedd: cache:", err)
		os.Exit(1)
	}
	defer cache.Close()

	alog, err := openAccessLog(*accessLog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qschedd:", err)
		os.Exit(1)
	}
	defer alog.Close()

	// SIGHUP is the log-rotation convention: the operator renames the
	// live file aside and signals; the next line lands in a fresh file.
	// Non-file sinks make Reopen a no-op, so signaling is always safe.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := alog.Reopen(); err != nil {
				fmt.Fprintln(os.Stderr, "qschedd: access-log reopen:", err)
			} else {
				fmt.Fprintln(os.Stderr, "qschedd: access log reopened")
			}
		}
	}()

	telemBudget, err := parseByteSize(*telemetryBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qschedd: -telemetry-budget:", err)
		os.Exit(1)
	}
	var store *telem.Store
	if *telemetryDir != "" {
		store, err = telem.Open(telem.Options{
			Dir:       *telemetryDir,
			Retention: *telemetryRet,
			MaxBytes:  telemBudget,
			Step:      *sampleEvery,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "qschedd: telemetry:", err)
			os.Exit(1)
		}
		// Close after the server drains so the final sampler tick and any
		// in-flight postmortem write land in sealed segments.
		defer store.Close()
	}

	if err := run(*addr, server.Options{
		MaxInflight:    *maxInflight,
		MaxQueue:       *queue,
		Timeout:        *timeout,
		Workers:        *workers,
		Cache:          cache,
		AccessLog:      alog,
		SlowThreshold:  *slowThreshold,
		SampleEvery:    *sampleEvery,
		Telemetry:      store,
		NoAutoSnapshot: !*snapshotOnSlow,
	}, *shutdownTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "qschedd:", err)
		os.Exit(1)
	}
}

// parseByteSize reads a human byte size: a bare integer is bytes, and
// the suffixes k/m/g (or KiB/MiB/GiB, case-insensitive) scale by 1024.
// Empty means no budget (0).
func parseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	lower := strings.ToLower(s)
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		scale  int64
	}{
		{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
		{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
		{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
	} {
		if strings.HasSuffix(lower, u.suffix) {
			mult = u.scale
			lower = strings.TrimSuffix(lower, u.suffix)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(lower), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid byte size %q", s)
	}
	return n * mult, nil
}

// openAccessLog resolves the -access-log flag: "" disables (nil logger),
// "-"/"stdout" and "stderr" are the process streams, anything else is a
// file opened for append (created if missing) that supports SIGHUP
// rotation via Reopen.
func openAccessLog(dest string) (*obs.AccessLog, error) {
	switch dest {
	case "":
		return nil, nil
	case "-", "stdout":
		return obs.NewAccessLog(os.Stdout), nil
	case "stderr":
		return obs.NewAccessLog(os.Stderr), nil
	}
	l, err := obs.NewAccessLogFile(dest)
	if err != nil {
		return nil, fmt.Errorf("access log: %w", err)
	}
	return l, nil
}

func run(addr string, opts server.Options, shutdownTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Listen before serving so -addr :0 works: the log line carries the
	// port the kernel picked.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := server.New(opts)
	defer srv.Close()
	httpSrv := &http.Server{Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "qschedd: serving on %s\n", ln.Addr())
		err := httpSrv.Serve(ln)
		if !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "qschedd: shutting down, draining in-flight work")
	srv.SetDraining()
	grace, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(grace); err != nil {
		fmt.Fprintf(os.Stderr, "qschedd: drain incomplete: %v\n", err)
	}
	if err := srv.Drain(grace); err != nil {
		fmt.Fprintf(os.Stderr, "qschedd: aborting stragglers: %v\n", err)
	}
	return nil
}
