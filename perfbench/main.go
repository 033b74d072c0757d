// Command perfbench is the repository's benchmark. One run measures one
// workload and prints, as the last line of standard output, a JSON
// object with the keys correct, attempted, failed and metrics. An
// untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) replays the same operations with a span around each call
// into a layer's public functions and reports per-layer metrics.
//
// Run it from the repository root (see README.md beside this file):
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 15 --trace 0
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string // trace files and scratch stores, inside the checkout
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back to main.
type outcome struct {
	setups   []time.Duration // each repetition of the workload's set-up
	opTimes                  // per timed op; a failed op's latency is +Inf
	segment  int             // ops per throughput and CPU segment
	start    time.Time       // timed phase start
	startCPU time.Duration   // process CPU time at the timed phase start
	peakRSS  float64         // VmHWM of the timed phase, MiB
	rssErr   error
	failed   int
	mem      memSample // runtime allocation/GC delta over the timed phase
	speedups []float64 // SpeedupVsNaive of every served result
	problems []string  // failed output checks, for the log
	broken   []string  // violated run-wide checks; the run is not correct
	layers   map[string]metric
}

// fail records a failed op (it misses every latency limit) and why. An
// op counts once however many of its checks fail.
func (o *outcome) fail(i int, format string, args ...any) {
	if !math.IsInf(o.lat[i], 1) {
		o.failed++
		o.lat[i] = math.Inf(1)
	}
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf("op %d: ", i)+fmt.Sprintf(format, args...))
	}
}

// breaks records a violated run-wide check: a wrong answer during
// set-up, or an invariant of the timed phase. The run is not correct.
func (o *outcome) breaks(format string, args ...any) {
	o.broken = append(o.broken, fmt.Sprintf(format, args...))
}

// opTimes records, per op, its latency and the wall and process CPU
// clocks at its completion.
type opTimes struct {
	lat  []float64 // ms
	done []time.Time
	cpu  []time.Duration
}

func newOpTimes(n int) opTimes {
	return opTimes{make([]float64, n), make([]time.Time, n), make([]time.Duration, n)}
}

// record notes that op i, started at t0, has completed.
func (t opTimes) record(i int, t0 time.Time) {
	t.done[i] = time.Now()
	t.cpu[i] = cpuTime()
	t.lat[i] = ms(t.done[i].Sub(t0))
}

// phase brackets a timed phase: GC first, then the wall and CPU clocks,
// peak RSS and runtime counters from a common start.
type phase struct {
	t0     time.Time
	cpu    time.Duration
	mem    memSample
	rssErr error
}

func startPhase() phase {
	runtime.GC()
	err := resetPeakRSS()
	return phase{t0: time.Now(), cpu: cpuTime(), mem: readMem(), rssErr: err}
}

func (p phase) stop(o *outcome) {
	o.start, o.startCPU = p.t0, p.cpu
	o.peakRSS, o.rssErr = peakRSSMB()
	o.rssErr = cmp.Or(p.rssErr, o.rssErr)
	m := readMem()
	o.mem = memSample{
		allocBytes: m.allocBytes - p.mem.allocBytes,
		gcCycles:   m.gcCycles - p.mem.gcCycles,
		pauseNS:    m.pauseNS - p.mem.pauseNS,
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"paper-sweep":  paperSweep,
	"service-warm": serviceWarm,
	"service-cold": serviceCold,
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "paper-sweep, service-warm or service-cold")
	flag.Int64Var(&c.seed, "seed", 1, "seed of the workload's inputs and order")
	flag.IntVar(&c.seconds, "seconds", 15, "target length of the timed phase; sets the op count in whole passes")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	c.trace = *traced == 1
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(c config) error {
	fn, ok := workloads[c.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := os.Stat(baselineDir); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	c.outDir = filepath.Join(".bench_build", "perfbench-out")
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	o, err := fn(c)
	if err != nil {
		return err
	}
	for _, p := range o.problems {
		fmt.Println("FAILED", p)
	}
	for _, b := range o.broken[:min(len(o.broken), 20)] {
		fmt.Println("BROKEN", b)
	}
	attempted := len(o.lat)
	metrics := o.layers
	if !c.trace {
		if metrics, err = endToEnd(o); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("ops attempted %d, succeeded %d, failed %d\n", attempted, attempted-o.failed, o.failed)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && len(o.broken) == 0, attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd derives the user-visible metrics from an untraced run.
func endToEnd(o *outcome) (map[string]metric, error) {
	n := len(o.lat)
	if n == 0 {
		return nil, fmt.Errorf("no ops ran")
	}
	setups := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setups[i] = d.Seconds()
	}
	p50, err := percentile(o.lat, 0.50)
	if err != nil {
		return nil, err
	}
	p95, err := percentile(o.lat, 0.95)
	if err != nil {
		return nil, err
	}
	rate, cpuPerOp := o.segments(o.start, o.startCPU, o.segment)
	if o.rssErr != nil {
		return nil, o.rssErr
	}
	// A failed op's latency is +Inf, which JSON cannot carry; report the
	// largest float instead: the percentile missed every limit.
	p50, p95 = min(p50, math.MaxFloat64), min(p95, math.MaxFloat64)
	return map[string]metric{
		"setup_s":                  {median(setups), "s"},
		"throughput_ops_s":         {rate, "1/s"},
		"latency_p50_ms":           {p50, "ms"},
		"latency_p95_ms":           {p95, "ms"},
		"cpu_ms_per_op":            {cpuPerOp, "ms"},
		"peak_rss_mb":              {o.peakRSS, "MB"},
		"speedup_vs_naive_geomean": {geomean(o.speedups), "ratio"},
	}, nil
}

// passes converts the time target into a whole number of passes over
// the workload's op set: seconds / nominal seconds per pass, but never
// fewer ops than a p95 needs.
func passes(seconds int, passSeconds float64, passOps int) int {
	n := int(math.Round(float64(seconds) / passSeconds))
	need := (200 + minBeyond + passOps - 1) / passOps
	return max(n, need, 1)
}

// segmentOps sizes the throughput and CPU segments: whole passes, about
// ten segments per run.
func segmentOps(passes, passOps int) int {
	return max(1, passes/10) * passOps
}
