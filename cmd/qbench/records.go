package main

// This file is the record pass behind -perf-out: one pass over the gated
// benchmarks writes every committed record of bench/baselines, and
// -perf-against gates its wall times.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/request"
)

// perfRecord is one benchmark's machine-readable performance summary,
// written as BENCH_<name>.json by -perf-out. The wall times,
// PeakGoroutines, GoMaxProcs and Workers depend on the host; every
// other field is deterministic. Work holds the metrics registry's
// counters across the cold and warm runs: the engine's exact work.
type perfRecord struct {
	Benchmark      string           `json:"benchmark"`
	Params         string           `json:"params"`
	Scheduler      string           `json:"scheduler"`
	K              int              `json:"k"`
	ColdWallMS     float64          `json:"cold_wall_ms"`
	WarmWallMS     float64          `json:"warm_wall_ms"`
	DiskWarmWallMS float64          `json:"disk_warm_wall_ms"`
	DiskHits       int64            `json:"disk_hits"`
	CacheHitRate   float64          `json:"cache_hit_rate"`
	CacheStats     core.CacheStats  `json:"cache_stats"`
	Work           map[string]int64 `json:"work"`
	PeakGoroutines int64            `json:"peak_goroutines"`
	SpeedupVsNaive float64          `json:"speedup_vs_naive"`
	GoMaxProcs     int              `json:"gomaxprocs"`
	Workers        int              `json:"workers"`
}

// perfRecords runs the record pass into dir and, with a non-empty
// against, gates every record's wall times (checkAgainst). Every
// benchmark is written before the first regression is reported.
func perfRecords(dir, against, schedName string, fth int64, workers int) error {
	recs, err := writeRecords(os.Stdout, dir, schedName, fth, workers)
	if err != nil || against == "" {
		return err
	}
	var regressions []error
	for _, rec := range recs {
		if err := checkAgainst(against, rec); err != nil {
			regressions = append(regressions, err)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("regression vs committed baselines: %w", errors.Join(regressions...))
	}
	return nil
}

// writeRecords is the record pass. Each gated benchmark is built once
// through the daemon's request path (request.Config with the benchmark
// name, the scheduler and fth given, the defaults otherwise) and then:
//   - evaluated cold and warm on a fresh memory cache, both timed and
//     counted by a fresh metrics registry;
//   - evaluated, untimed, into the persistent store dir/cas, which the
//     pass shares across benchmarks: the seed corpus qschedd
//     -cache-preload serves;
//   - evaluated, timed, by a cache reopened over that store with cold
//     memory (disk-warm), which the disk layer must serve;
//   - profiled into a schedule report (core.BuildReport) over the cold
//     run's metrics.
//
// It writes BENCH_<name>.json and REPORT_<name>.json into dir, prints a
// progress line per benchmark to w, and returns the records.
func writeRecords(w io.Writer, dir, schedName string, fth int64, workers int) ([]perfRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var recs []perfRecord
	for _, b := range bench.Gated() {
		cfg := request.Config{Bench: b.Name, Scheduler: schedName, FTh: fth}.WithDefaults()
		rec, err := writeRecord(dir, cfg, b.Params, workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		fmt.Fprintf(w, "%-10s cold %8.1fms  warm %8.1fms  disk-warm %8.1fms  hit rate %5.1f%%  -> %s\n",
			rec.Benchmark, rec.ColdWallMS, rec.WarmWallMS, rec.DiskWarmWallMS, 100*rec.CacheHitRate, dir)
		recs = append(recs, rec)
	}
	return recs, nil
}

// writeRecord runs the record pass for one benchmark (see writeRecords).
func writeRecord(dir string, cfg request.Config, params string, workers int) (perfRecord, error) {
	if err := cfg.Validate(); err != nil {
		return perfRecord{}, err
	}
	p, err := cfg.Build(nil)
	if err != nil {
		return perfRecord{}, err
	}
	opts, err := cfg.EvalOptions()
	if err != nil {
		return perfRecord{}, err
	}
	opts.Workers = workers
	cache := core.NewEvalCache()
	reg := obs.NewRegistry()
	opts.Cache, opts.Obs = cache, &obs.Observer{Metrics: reg}
	start := time.Now()
	m, err := core.Evaluate(p, opts)
	if err != nil {
		return perfRecord{}, fmt.Errorf("cold: %w", err)
	}
	cold := time.Since(start)
	afterCold := cache.Stats()
	start = time.Now()
	if _, err := core.Evaluate(p, opts); err != nil {
		return perfRecord{}, fmt.Errorf("warm: %w", err)
	}
	warm := time.Since(start)
	opts.Obs = nil

	casDir := filepath.Join(dir, "cas")
	if err := evaluateInto(p, opts, casDir); err != nil {
		return perfRecord{}, fmt.Errorf("disk populate: %w", err)
	}
	disk, err := core.OpenEvalCache(core.CacheConfig{Dir: casDir})
	if err != nil {
		return perfRecord{}, err
	}
	defer disk.Close()
	opts.Cache = disk
	start = time.Now()
	if _, err := core.Evaluate(p, opts); err != nil {
		return perfRecord{}, fmt.Errorf("disk warm: %w", err)
	}
	diskWarm := time.Since(start)

	sr, err := core.BuildReport(context.Background(), p, cfg.Bench, m, opts)
	if err != nil {
		return perfRecord{}, fmt.Errorf("report: %w", err)
	}
	if err := sr.WriteJSONFile(filepath.Join(dir, "REPORT_"+cfg.Bench+".json")); err != nil {
		return perfRecord{}, err
	}

	effWorkers := workers
	if effWorkers == 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	rec := perfRecord{
		Benchmark: cfg.Bench, Params: params,
		Scheduler: cfg.Scheduler, K: cfg.K,
		ColdWallMS:     ms(cold),
		WarmWallMS:     ms(warm),
		DiskWarmWallMS: ms(diskWarm),
		DiskHits:       disk.Stats().DiskHits,
		CacheHitRate:   cache.Stats().Sub(afterCold).CommHitRate(),
		CacheStats:     cache.Stats(),
		Work:           reg.Snapshot().Counters,
		PeakGoroutines: reg.Gauge("engine.workers.peak").Value(),
		SpeedupVsNaive: m.SpeedupVsNaive(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Workers:        effWorkers,
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return perfRecord{}, err
	}
	return rec, os.WriteFile(filepath.Join(dir, "BENCH_"+cfg.Bench+".json"), append(data, '\n'), 0o644)
}

// evaluateInto evaluates p once on a cache over the persistent store at
// dir and closes it, as a process exiting would.
func evaluateInto(p *ir.Program, opts core.EvalOptions, dir string) error {
	c, err := core.OpenEvalCache(core.CacheConfig{Dir: dir})
	if err != nil {
		return err
	}
	defer c.Close()
	opts.Cache = c
	_, err = core.Evaluate(p, opts)
	return err
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// regressionLimit flags a fresh wall time as a regression when it
// exceeds the committed baseline by more than 25%, with an absolute
// 50ms slack so millisecond-scale benchmarks don't trip on scheduler
// jitter from a noisy CI host.
func regressionLimit(baselineMS float64) float64 {
	return baselineMS*1.25 + 50
}

// checkAgainst holds every time gate of a fresh record. Its disk-warm
// time must land near its own warm time (2x + 50ms): a fresh process
// answering from the disk layer must not pay the cold path. Its cold
// and warm times are gated against the committed baseline in dir with
// regressionLimit. A missing baseline skips only that comparison — new
// benchmarks join the trajectory on their first committed record.
func checkAgainst(dir string, rec perfRecord) error {
	var errs []error
	if limit := 2*rec.WarmWallMS + 50; rec.DiskWarmWallMS > limit {
		errs = append(errs, fmt.Errorf("%s: disk-warm wall time %.1fms exceeds %.1fms (2x warm %.1fms + 50ms slack)",
			rec.Benchmark, rec.DiskWarmWallMS, limit, rec.WarmWallMS))
	}
	path := filepath.Join(dir, "BENCH_"+rec.Benchmark+".json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		fmt.Printf("%-10s no baseline at %s, skipping check\n", rec.Benchmark, path)
		return errors.Join(errs...)
	}
	if err != nil {
		return err
	}
	var base perfRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if limit := regressionLimit(base.ColdWallMS); rec.ColdWallMS > limit {
		errs = append(errs, fmt.Errorf("%s: cold wall time %.1fms exceeds %.1fms (baseline %.1fms + 25%% + 50ms slack)",
			rec.Benchmark, rec.ColdWallMS, limit, base.ColdWallMS))
	}
	if limit := regressionLimit(base.WarmWallMS); rec.WarmWallMS > limit {
		errs = append(errs, fmt.Errorf("%s: warm wall time %.1fms exceeds %.1fms (baseline %.1fms + 25%% + 50ms slack)",
			rec.Benchmark, rec.WarmWallMS, limit, base.WarmWallMS))
	}
	return errors.Join(errs...)
}
