// Package soak is the long-running determinism and legality harness:
// it sweeps seeded random hierarchical programs (verify.RandomProgram)
// through the language front end, every registered scheduler, the
// legality oracle and the full evaluation engine, asserting on every
// instance that
//
//   - Scaffold rendering round-trips: parse + sema + lower of the
//     generated source reproduces the exact program fingerprint;
//   - scheduling is deterministic: repeated runs yield bit-identical
//     schedules (verify.ScheduleDigest);
//   - every schedule passes the independent Multi-SIMD legality oracle
//     with move-list consistency (verify.Full);
//   - engine metrics are bit-identical across worker counts and across
//     cache cold/warm runs, with the in-engine oracle (Verify) on.
//
// Failures carry the derived seed and a qsoak command line that replays
// exactly the failing instance, so a multi-hour sweep never has to be
// rerun to debug one program.
package soak

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"reflect"
	"strings"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/verify"

	// The harness sweeps every registered scheduler.
	_ "github.com/scaffold-go/multisimd/internal/lpfs"
	_ "github.com/scaffold-go/multisimd/internal/rcp"
)

// Options configures a sweep. The zero value is the full acceptance
// profile: 200 programs × 3 seeds × all registered schedulers.
type Options struct {
	// Programs is the number of program indices to sweep (default 200).
	Programs int
	// Seeds is the number of seed lanes per program index (default 3).
	Seeds int
	// Base offsets the derived seed space (default 1). Instance
	// (program i, lane j) generates from seed Base + i*1000003 + j, so
	// any instance replays in isolation.
	Base int64
	// StartProgram / StartSeed shift the sweep window without changing
	// per-instance seeds — the replay knobs qsoak repro lines use.
	StartProgram int
	StartSeed    int

	// Gen shapes the generated programs.
	Gen verify.ProgramGenOptions

	// Schedulers lists registry names to sweep; empty means every
	// registered scheduler.
	Schedulers []string
	// Workers lists the engine worker counts cross-checked for metric
	// identity; empty means {1, 4}.
	Workers []int

	// CacheDir, when non-empty, adds a persistent-cache lane to every
	// engine check: evaluate into a disk-backed cache rooted here, close
	// it (a simulated process exit), reopen the same directory with cold
	// memory and evaluate again. The restarted run must return metrics
	// bit-identical to every in-memory run — the determinism contract of
	// the persistent result store.
	CacheDir string

	// MaxFailures bounds recorded failures (default 25); the sweep
	// stops early once reached.
	MaxFailures int

	// Progress, when non-nil, is called after every program index
	// completes with a running snapshot of the sweep, so long runs can
	// report periodically (see cmd/qsoak) without the harness deciding
	// a cadence.
	Progress func(ProgressUpdate)
}

// ProgressUpdate is the running state handed to Options.Progress after
// each program index: position in the sweep plus the work counters
// accumulated so far (the same counters the final Result reports).
type ProgressUpdate struct {
	// Done / Total are completed and planned program indices.
	Done, Total int
	// Instances, Schedules and Evaluations mirror Result's counters at
	// this point in the sweep.
	Instances   int
	Schedules   int64
	Evaluations int64
	// Failures counts recorded plus truncated failures so far.
	Failures int
}

func (o Options) programs() int {
	if o.Programs <= 0 {
		return 200
	}
	return o.Programs
}

func (o Options) seeds() int {
	if o.Seeds <= 0 {
		return 3
	}
	return o.Seeds
}

func (o Options) base() int64 {
	if o.Base == 0 {
		return 1
	}
	return o.Base
}

func (o Options) maxFailures() int {
	if o.MaxFailures <= 0 {
		return 25
	}
	return o.MaxFailures
}

func (o Options) workers() []int {
	if len(o.Workers) == 0 {
		return []int{1, 4}
	}
	return o.Workers
}

func (o Options) schedulers() []string {
	if len(o.Schedulers) == 0 {
		return schedule.Names()
	}
	return o.Schedulers
}

// Failure is one broken invariant, with everything needed to replay it.
type Failure struct {
	Program   int    `json:"program"`
	SeedLane  int    `json:"seed_lane"`
	Seed      int64  `json:"seed"`
	Scheduler string `json:"scheduler,omitempty"`
	Stage     string `json:"stage"`
	Detail    string `json:"detail"`
	Repro     string `json:"repro"`
}

// Result summarizes a sweep.
type Result struct {
	// Instances is the number of generated (program, seed) instances.
	Instances int `json:"instances"`
	// RoundTrips counts successful Scaffold source round-trip checks.
	RoundTrips int `json:"round_trips"`
	// Schedules counts leaf schedules built and oracle-verified.
	Schedules int64 `json:"schedules"`
	// Evaluations counts full engine runs.
	Evaluations int64 `json:"evaluations"`
	// Digest folds every leaf schedule digest in sweep order — two runs
	// of the same sweep must produce the identical value.
	Digest uint64 `json:"digest"`
	// TruncatedFailures counts failures beyond MaxFailures that were
	// not recorded.
	TruncatedFailures int       `json:"truncated_failures,omitempty"`
	Failures          []Failure `json:"failures,omitempty"`
}

// Failed reports whether the sweep broke any invariant.
func (r *Result) Failed() bool { return len(r.Failures) > 0 || r.TruncatedFailures > 0 }

// SeedFor returns the generation seed of instance (program, lane) under
// base — the derivation both Run and the repro lines rely on.
func SeedFor(base int64, program, lane int) int64 {
	return base + int64(program)*1000003 + int64(lane)
}

// instanceConfig rotates the machine and movement model across
// instances, mirroring the differential harness's rotation. Wide gate
// mixes skip d = 2 (three-qubit gates cannot fit).
func instanceConfig(n int, wide bool) (k, d int, copts comm.Options) {
	k = []int{1, 2, 3, 4, 8}[n%5]
	d = []int{0, 0, 2, 4}[n%4]
	if wide && d == 2 {
		d = 3
	}
	switch n % 3 {
	case 1:
		copts.LocalCapacity = 1 + n%4
	case 2:
		copts.LocalCapacity = -1
	}
	if n%7 == 3 {
		copts.NoOverlap = true
	}
	if n%11 == 5 {
		copts.EPRBandwidth = 1 + n%3
	}
	return k, d, copts
}

// Run executes the sweep.
func Run(opts Options) (*Result, error) {
	scheds := make([]schedule.Scheduler, 0, len(opts.schedulers()))
	for _, name := range opts.schedulers() {
		s, err := core.SchedulerByName(name)
		if err != nil {
			return nil, err
		}
		scheds = append(scheds, s)
	}
	if len(scheds) == 0 {
		return nil, fmt.Errorf("soak: no schedulers to sweep")
	}
	res := &Result{}
	digest := fnv.New64a()
	nPrograms, nSeeds := opts.programs(), opts.seeds()

	fail := func(pi, si int, sched, stage, detail string) {
		if len(res.Failures) >= opts.maxFailures() {
			res.TruncatedFailures++
			return
		}
		res.Failures = append(res.Failures, Failure{
			Program:   pi,
			SeedLane:  si,
			Seed:      SeedFor(opts.base(), pi, si),
			Scheduler: sched,
			Stage:     stage,
			Detail:    detail,
			Repro:     opts.Repro(pi, si),
		})
	}

	for i := 0; i < nPrograms; i++ {
		pi := opts.StartProgram + i
		for j := 0; j < nSeeds; j++ {
			si := opts.StartSeed + j
			if len(res.Failures) >= opts.maxFailures() {
				res.TruncatedFailures++
				continue
			}
			res.Instances++
			seed := SeedFor(opts.base(), pi, si)
			rng := rand.New(rand.NewSource(seed))
			p := verify.RandomProgram(rng, opts.Gen)
			if err := p.Validate(); err != nil {
				fail(pi, si, "", "generate", err.Error())
				continue
			}
			k, d, copts := instanceConfig(pi*31+si, opts.Gen.Wide)

			if ok := checkRoundTrip(p, func(stage, detail string) { fail(pi, si, "", stage, detail) }); ok {
				res.RoundTrips++
			}

			leaves, err := materializedLeaves(p)
			if err != nil {
				fail(pi, si, "", "materialize", err.Error())
				continue
			}
			for _, sched := range scheds {
				n, err := checkSchedules(leaves, sched, k, d, copts, digest)
				res.Schedules += n
				if err != nil {
					fail(pi, si, sched.Name(), "schedule", err.Error())
					continue
				}
				n2, err := checkEngine(p, sched, k, d, copts, opts.workers(), opts.CacheDir)
				res.Evaluations += n2
				if err != nil {
					fail(pi, si, sched.Name(), "engine", err.Error())
				}
			}
		}
		if opts.Progress != nil {
			opts.Progress(ProgressUpdate{
				Done: i + 1, Total: nPrograms,
				Instances:   res.Instances,
				Schedules:   res.Schedules,
				Evaluations: res.Evaluations,
				Failures:    len(res.Failures) + res.TruncatedFailures,
			})
		}
	}
	res.Digest = digest.Sum64()
	return res, nil
}

// Repro renders the qsoak command line that replays exactly instance
// (program pi, lane si) of this sweep.
func (o Options) Repro(pi, si int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "go run ./cmd/qsoak -base %d -start-program %d -programs 1 -start-seed %d -seeds 1", o.base(), pi, si)
	g := o.Gen
	if g.Depth > 0 {
		fmt.Fprintf(&b, " -depth %d", g.Depth)
	}
	if g.ModulesPerLevel > 0 {
		fmt.Fprintf(&b, " -modules %d", g.ModulesPerLevel)
	}
	if g.Fanout > 0 {
		fmt.Fprintf(&b, " -fanout %d", g.Fanout)
	}
	if g.LeafOps > 0 {
		fmt.Fprintf(&b, " -leaf-ops %d", g.LeafOps)
	}
	if g.BodyGates > 0 {
		fmt.Fprintf(&b, " -body-gates %d", g.BodyGates)
	}
	if g.MaxRegSize > 0 {
		fmt.Fprintf(&b, " -max-reg %d", g.MaxRegSize)
	}
	fmt.Fprintf(&b, " -loops=%v -wide=%v -measure=%v", g.Loops, g.Wide, g.Measure)
	if len(o.Schedulers) > 0 {
		fmt.Fprintf(&b, " -sched %s", strings.Join(o.Schedulers, ","))
	}
	if len(o.Workers) > 0 {
		ws := make([]string, len(o.Workers))
		for i, w := range o.Workers {
			ws[i] = fmt.Sprint(w)
		}
		fmt.Fprintf(&b, " -workers %s", strings.Join(ws, ","))
	}
	return b.String()
}

// checkRoundTrip asserts that the program's Scaffold rendering goes
// back through the front end to the same fingerprint.
func checkRoundTrip(p *ir.Program, fail func(stage, detail string)) bool {
	src, err := verify.ProgramScaffold(p)
	if err != nil {
		fail("render", err.Error())
		return false
	}
	q, err := core.Frontend(src, core.PipelineOptions{})
	if err != nil {
		fail("frontend", err.Error())
		return false
	}
	if p.Fingerprint() != q.Fingerprint() {
		fail("source-roundtrip", fmt.Sprintf("fingerprint drifted %s -> %s", p.Fingerprint(), q.Fingerprint()))
		return false
	}
	return true
}

// materializedLeaves expands every reachable leaf and builds its
// dependency DAG once for direct fine-grained scheduling.
func materializedLeaves(p *ir.Program) ([]*dag.Graph, error) {
	order, err := p.Topo()
	if err != nil {
		return nil, err
	}
	var leaves []*dag.Graph
	for _, name := range order {
		m := p.Modules[name]
		if !m.IsLeaf() {
			continue
		}
		_, g, err := core.MaterializeLeaf(m)
		if err != nil {
			return nil, fmt.Errorf("leaf %s: %w", name, err)
		}
		leaves = append(leaves, g)
	}
	return leaves, nil
}

// checkSchedules schedules every leaf twice with one scheduler,
// asserting digest-identical repeats and oracle legality with move-list
// consistency. Each verified digest folds into the sweep digest.
func checkSchedules(leaves []*dag.Graph, sched schedule.Scheduler, k, d int, copts comm.Options, sweep io.Writer) (int64, error) {
	var n int64
	for _, g := range leaves {
		m := g.M
		s, err := sched.Schedule(m, g, k, d)
		if err != nil {
			return n, fmt.Errorf("leaf %s k=%d d=%d: %w", m.Name, k, d, err)
		}
		n++
		dig := verify.ScheduleDigest(s)
		again, err := sched.Schedule(m, g, k, d)
		if err != nil {
			return n, fmt.Errorf("leaf %s k=%d d=%d rerun: %w", m.Name, k, d, err)
		}
		if rd := verify.ScheduleDigest(again); rd != dig {
			return n, fmt.Errorf("leaf %s k=%d d=%d: nondeterministic schedule: digest %016x then %016x", m.Name, k, d, dig, rd)
		}
		res, err := comm.Analyze(s, copts)
		if err != nil {
			return n, fmt.Errorf("leaf %s: comm: %w", m.Name, err)
		}
		if err := verify.Full(s, g, res, copts); err != nil {
			return n, fmt.Errorf("leaf %s k=%d d=%d opts=%+v: oracle: %w", m.Name, k, d, copts, err)
		}
		var db [8]byte
		for i := 0; i < 8; i++ {
			db[i] = byte(dig >> (8 * i))
		}
		sweep.Write(db[:])
	}
	return n, nil
}

// checkEngine runs the full evaluation engine over the hierarchical
// program — cold and warm cache at every requested worker count, with
// the in-engine legality oracle on — and asserts every run returns
// bit-identical metrics. A non-empty cacheDir adds the persistent lane:
// populate a disk-backed cache, close it, reopen the directory with
// cold memory (a simulated restart) and demand the same metrics again.
// The restart runs without the oracle, which would bypass the comm fast
// path, so its every characterization must come from a persisted comm
// record: no comm or schedule miss and at least one disk hit.
func checkEngine(p *ir.Program, sched schedule.Scheduler, k, d int, copts comm.Options, workers []int, cacheDir string) (int64, error) {
	var ref *core.Metrics
	var refDesc string
	var n int64
	check := func(m *core.Metrics, desc string) error {
		if ref == nil {
			ref = m
			refDesc = desc
			return nil
		}
		if !reflect.DeepEqual(ref, m) {
			return fmt.Errorf("metrics diverge: %s gave %+v, %s gave %+v", refDesc, *ref, desc, *m)
		}
		return nil
	}
	for _, w := range workers {
		cache := core.NewEvalCache()
		for run := 0; run < 2; run++ {
			m, err := core.Evaluate(p, core.EvalOptions{
				Scheduler: sched,
				K:         k,
				D:         d,
				Comm:      copts,
				Verify:    true,
				Workers:   w,
				Cache:     cache,
			})
			n++
			state := "cold"
			if run == 1 {
				state = "warm"
			}
			if err != nil {
				return n, fmt.Errorf("evaluate workers=%d cache=%s k=%d d=%d: %w", w, state, k, d, err)
			}
			if err := check(m, fmt.Sprintf("workers=%d cache=%s", w, state)); err != nil {
				return n, err
			}
		}
	}
	if cacheDir != "" {
		for run := 0; run < 2; run++ {
			// Opening the same directory twice — with a Close in between —
			// is the restart: run 0 populates the disk layer, run 1 starts
			// with cold memory and must be served from it.
			pc, err := core.OpenEvalCache(core.CacheConfig{Dir: cacheDir})
			if err != nil {
				return n, fmt.Errorf("persistent cache %s: %w", cacheDir, err)
			}
			rec := &core.CacheRecorder{}
			m, err := core.Evaluate(p, core.EvalOptions{
				Scheduler:  sched,
				K:          k,
				D:          d,
				Comm:       copts,
				Verify:     run == 0,
				Cache:      pc,
				CacheStats: rec,
			})
			pc.Close()
			n++
			state := "persist-cold"
			if run == 1 {
				state = "persist-restart"
			}
			if err != nil {
				return n, fmt.Errorf("evaluate cache=%s k=%d d=%d: %w", state, k, d, err)
			}
			if err := check(m, fmt.Sprintf("cache=%s", state)); err != nil {
				return n, err
			}
			if st := rec.Stats(); run == 1 && (st.CommMisses != 0 || st.SchedMisses != 0 || st.DiskHits == 0) {
				return n, fmt.Errorf("cache=%s k=%d d=%d: %d comm misses, %d sched misses, %d disk hits; want 0, 0 and at least 1",
					state, k, d, st.CommMisses, st.SchedMisses, st.DiskHits)
			}
		}
	}
	return n, nil
}
