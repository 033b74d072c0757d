// Command qsoak runs the soak/determinism sweep: seeded random
// hierarchical programs through the front end, every registered
// scheduler, the legality oracle and the full evaluation engine (see
// internal/soak). The defaults are the
// acceptance profile — 200 programs × 3 seeds × all registered
// schedulers — and every failure prints a command line that replays
// exactly the failing instance:
//
//	go run ./cmd/qsoak                      # full sweep
//	go run ./cmd/qsoak -programs 20         # quick pass
//	go run ./cmd/qsoak -base 1 -start-program 137 -programs 1 \
//	    -start-seed 2 -seeds 1              # replay one instance
//
// Exit status is 0 on a clean sweep and 1 when any invariant broke.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/scaffold-go/multisimd/internal/soak"
	"github.com/scaffold-go/multisimd/internal/verify"
)

func main() {
	var (
		programs     = flag.Int("programs", 200, "number of program indices to sweep")
		seeds        = flag.Int("seeds", 3, "seed lanes per program index")
		base         = flag.Int64("base", 1, "base of the derived seed space")
		startProgram = flag.Int("start-program", 0, "first program index (replay windowing)")
		startSeed    = flag.Int("start-seed", 0, "first seed lane (replay windowing)")

		depth     = flag.Int("depth", 0, "call-graph depth below the entry (0 = generator default)")
		modules   = flag.Int("modules", 0, "modules per level (0 = generator default)")
		fanout    = flag.Int("fanout", 0, "max extra call sites per non-leaf (0 = generator default)")
		leafOps   = flag.Int("leaf-ops", 0, "gate ops per leaf (0 = generator default)")
		bodyGates = flag.Int("body-gates", 0, "stray gates per non-leaf (0 = generator default)")
		maxReg    = flag.Int("max-reg", 0, "max register width (0 = generator default)")
		loops     = flag.Bool("loops", true, "generate counted loops (collapsing Count multipliers)")
		wide      = flag.Bool("wide", true, "include three-qubit gates and Swap in leaf mixes")
		measure   = flag.Bool("measure", true, "include PrepZ/MeasZ and ancilla envelopes")

		schedulers    = flag.String("sched", "", "comma-separated scheduler names (empty = all registered)")
		cacheDir      = flag.String("cache-dir", "", "persistent result-store `directory`: adds a close-and-reopen restart lane to every engine check, asserting disk-served metrics stay bit-identical")
		workers       = flag.String("workers", "", "comma-separated engine worker counts to cross-check (empty = 1,4)")
		jsonOut       = flag.String("json", "", "write the sweep result as JSON to this file")
		quiet         = flag.Bool("q", false, "suppress progress lines")
		progressEvery = flag.Duration("progress-every", 10*time.Second, "minimum interval between progress lines (the final line always prints)")
	)
	flag.Parse()

	opts := soak.Options{
		Programs:     *programs,
		Seeds:        *seeds,
		Base:         *base,
		StartProgram: *startProgram,
		StartSeed:    *startSeed,
		Gen: verify.ProgramGenOptions{
			Depth:           *depth,
			ModulesPerLevel: *modules,
			Fanout:          *fanout,
			LeafOps:         *leafOps,
			BodyGates:       *bodyGates,
			MaxRegSize:      *maxReg,
			Loops:           *loops,
			Wide:            *wide,
			Measure:         *measure,
		},
	}
	opts.CacheDir = *cacheDir
	if *schedulers != "" {
		opts.Schedulers = strings.Split(*schedulers, ",")
	}
	if *workers != "" {
		for _, f := range strings.Split(*workers, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || w < 0 {
				fmt.Fprintf(os.Stderr, "qsoak: bad -workers entry %q\n", f)
				os.Exit(2)
			}
			opts.Workers = append(opts.Workers, w)
		}
	}
	if !*quiet {
		// Print on a wall-clock cadence rather than a fixed index stride:
		// generated program sizes vary wildly, so "every N programs" is
		// either spammy on small sweeps or silent for minutes on big ones.
		start := time.Now()
		last := start
		rate := soak.NewRateEstimator(time.Minute)
		opts.Progress = func(u soak.ProgressUpdate) {
			now := time.Now()
			rate.Observe(now, float64(u.Instances))
			if now.Sub(last) < *progressEvery && u.Done != u.Total {
				return
			}
			last = now
			line := fmt.Sprintf("qsoak: %d/%d programs, %d instances, %d schedules verified, %d engine runs, %d failures, %s elapsed",
				u.Done, u.Total, u.Instances, u.Schedules, u.Evaluations, u.Failures,
				now.Sub(start).Round(time.Second))
			// ETA: scale instances seen so far to the full program count,
			// then extrapolate the remainder at the rolling instances/sec
			// (robust to the generator's wildly varying program sizes).
			if u.Done > 0 && u.Done < u.Total {
				estTotal := float64(u.Instances) * float64(u.Total) / float64(u.Done)
				if d, ok := rate.ETA(estTotal - float64(u.Instances)); ok {
					line += fmt.Sprintf(", ~%s left (%.0f inst/s)", d.Round(time.Second), rate.Rate())
				}
			}
			fmt.Println(line)
		}
	}

	res, err := soak.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qsoak: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qsoak: %v\n", err)
			os.Exit(2)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "qsoak: write %s: %v\n", *jsonOut, err)
			os.Exit(2)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "qsoak: close %s: %v\n", *jsonOut, err)
			os.Exit(2)
		}
	}

	fmt.Printf("qsoak: %d instances, %d round trips, %d schedules verified, %d engine runs, sweep digest %016x\n",
		res.Instances, res.RoundTrips, res.Schedules, res.Evaluations, res.Digest)
	if res.Failed() {
		for _, f := range res.Failures {
			fmt.Printf("FAIL program %d lane %d (seed %d) scheduler %q stage %s: %s\n  replay: %s\n",
				f.Program, f.SeedLane, f.Seed, f.Scheduler, f.Stage, f.Detail, f.Repro)
		}
		if res.TruncatedFailures > 0 {
			fmt.Printf("FAIL %d further failures truncated\n", res.TruncatedFailures)
		}
		os.Exit(1)
	}
	fmt.Println("qsoak: all invariants held")
}
