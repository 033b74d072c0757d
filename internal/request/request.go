// Package request defines the one validated compilation-request surface
// shared by the qsched command line and the qschedd daemon: a Config
// names a program (inline source or bundled benchmark), a scheduler from
// the registry, the Multi-SIMD(k,d) machine shape and the communication
// model, plus the verify/profile toggles. Flag parsing (RegisterFlags)
// and JSON decoding produce the same struct, so both front ends share a
// single validation path (Validate) and build/evaluate identically.
package request

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

// Default values applied by WithDefaults when a field is unset.
const (
	DefaultScheduler = "lpfs"
	DefaultK         = 4
	DefaultEntry     = "main"
	DefaultFTh       = 2000 // exploration-scale flattening threshold
)

// MaxK bounds k at 8x the paper's largest machine (128 regions): memory
// grows linearly in k, so unbounded, a tiny body could ask for gigabytes.
const MaxK = 1024

// Config is one compilation request. The zero value plus a Source (or
// Bench) is valid after WithDefaults. JSON field names are the daemon's
// v1 wire contract; the flag names RegisterFlags installs are qsched's.
type Config struct {
	// Source is inline Scaffold-lite source. Exactly one of Source and
	// Bench must be set.
	Source string `json:"source,omitempty"`
	// Bench names a bundled benchmark (bench.ByName).
	Bench string `json:"bench,omitempty"`
	// Entry is the entry module (default "main").
	Entry string `json:"entry,omitempty"`
	// FTh is the flattening threshold in gates (default 2000).
	FTh int64 `json:"fth,omitempty"`

	// Scheduler is a registered fine-grained scheduler name
	// (default "lpfs").
	Scheduler string `json:"scheduler,omitempty"`
	// K is the number of SIMD regions (default 4); D the per-region data
	// parallelism (0 = unlimited).
	K int `json:"k,omitempty"`
	D int `json:"d,omitempty"`

	// Local is the per-region scratchpad capacity: 0 none, negative
	// unlimited.
	Local int `json:"local,omitempty"`
	// NoOverlap selects the strict (unmasked) §4.4 movement accounting.
	NoOverlap bool `json:"no_overlap,omitempty"`
	// EPRBandwidth caps teleports per step boundary (0 = unlimited).
	EPRBandwidth int `json:"epr_bandwidth,omitempty"`

	// Verify audits the evaluation (core.EvalOptions.Verify): every leaf
	// re-derived, checked by the legality oracle and compared with what
	// the cache served.
	Verify bool `json:"verify,omitempty"`
	// Profile builds the schedule report (core.BuildReport) after the
	// evaluation.
	Profile bool `json:"profile,omitempty"`
}

// RegisterFlags installs the shared surface on fs, binding each flag to
// the corresponding Config field. Program selection (source file
// argument vs -bench) stays with the caller; everything else is common.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Scheduler, "sched", DefaultScheduler,
		fmt.Sprintf("fine-grained scheduler (registered: %s)", strings.Join(schedule.Names(), ", ")))
	fs.IntVar(&c.K, "k", DefaultK, "SIMD regions")
	fs.IntVar(&c.D, "d", 0, "data parallelism per region (0 = unlimited)")
	fs.IntVar(&c.Local, "local", 0, "scratchpad capacity per region (-1 = unlimited)")
	fs.BoolVar(&c.NoOverlap, "no-overlap", false, "strict §4.4 movement accounting (no teleport masking)")
	fs.IntVar(&c.EPRBandwidth, "epr", 0, "EPR distribution bandwidth: teleports per step boundary (0 = unlimited)")
	fs.Int64Var(&c.FTh, "fth", DefaultFTh, "flattening threshold")
	fs.StringVar(&c.Entry, "entry", DefaultEntry, "entry module")
	fs.StringVar(&c.Bench, "bench", "", "built-in benchmark name")
	fs.BoolVar(&c.Verify, "verify", false, "audit the evaluation: re-derive every leaf, check it with the legality oracle and compare it with what the cache served")
}

// WithDefaults fills unset fields with the package defaults and returns
// the completed config. JSON requests omit most fields; the CLI's flag
// defaults make this a no-op there.
func (c Config) WithDefaults() Config {
	if c.Scheduler == "" {
		c.Scheduler = DefaultScheduler
	}
	if c.K == 0 {
		c.K = DefaultK
	}
	if c.Entry == "" {
		c.Entry = DefaultEntry
	}
	if c.FTh == 0 {
		c.FTh = DefaultFTh
	}
	return c
}

// Validate is the single validation path for both front ends. It
// assumes WithDefaults has run (the zero scheduler/k are rejected, not
// defaulted, so a raw zero Config fails loudly rather than silently
// diverging from the defaulted one).
func (c Config) Validate() error {
	switch {
	case c.Source == "" && c.Bench == "":
		return fmt.Errorf("request: one of source or bench is required")
	case c.Source != "" && c.Bench != "":
		return fmt.Errorf("request: source and bench are mutually exclusive")
	}
	if c.Bench != "" {
		if _, ok := bench.ByName(c.Bench); !ok {
			return fmt.Errorf("request: unknown benchmark %q", c.Bench)
		}
	}
	if _, ok := schedule.Lookup(c.Scheduler); !ok {
		return fmt.Errorf("request: unknown scheduler %q (registered: %s)",
			c.Scheduler, strings.Join(schedule.Names(), ", "))
	}
	if c.K < 1 || c.K > MaxK {
		return fmt.Errorf("request: k must be in [1, %d], got %d", MaxK, c.K)
	}
	if c.D < 0 {
		return fmt.Errorf("request: d must be >= 0, got %d", c.D)
	}
	if c.FTh < 0 {
		return fmt.Errorf("request: fth must be >= 0, got %d", c.FTh)
	}
	if c.EPRBandwidth < 0 {
		return fmt.Errorf("request: epr_bandwidth must be >= 0, got %d", c.EPRBandwidth)
	}
	if c.Entry == "" {
		return fmt.Errorf("request: entry module name is required")
	}
	return nil
}

// Label names the request in reports: the benchmark name or a generic
// source tag.
func (c Config) Label() string {
	if c.Bench != "" {
		return c.Bench
	}
	return "program"
}

// Comm bundles the communication-model fields as the engine consumes
// them.
func (c Config) Comm() comm.Options {
	return comm.Options{
		LocalCapacity: c.Local,
		NoOverlap:     c.NoOverlap,
		EPRBandwidth:  c.EPRBandwidth,
	}
}

// source resolves the program text: the inline source, or the named
// benchmark's.
func (c Config) source() string {
	if c.Bench != "" {
		b, _ := bench.ByName(c.Bench)
		return b.Source
	}
	return c.Source
}

// Build compiles the named program through the full pipeline. The
// observer (nil = off) traces the compile phases. BuildKey covers
// exactly the fields it reads.
func (c Config) Build(o *obs.Observer) (*ir.Program, error) {
	return core.Build(c.source(), core.PipelineOptions{Entry: c.Entry, FTh: c.FTh, Obs: o})
}

// BuildKey identifies Build's output: a SHA-256 over the resolved
// source, Entry and FTh, the only fields Build reads. A benchmark name
// and its inline source share a key; the machine shape, scheduler,
// comm model and toggles do not enter it.
//
// The strings pass through a fixed stack buffer, so the key allocates
// nothing however long the source is.
func (c Config) BuildKey() [sha256.Size]byte {
	h := sha256.New()
	var buf [512]byte
	n := 0
	u64 := func(v uint64) {
		if n+8 > len(buf) {
			h.Write(buf[:n])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], v)
		n += 8
	}
	str := func(s string) {
		u64(uint64(len(s)))
		for len(s) > 0 {
			if n == len(buf) {
				h.Write(buf[:n])
				n = 0
			}
			k := copy(buf[n:], s)
			n += k
			s = s[k:]
		}
	}
	str(c.source())
	str(c.Entry)
	u64(uint64(c.FTh))
	h.Write(buf[:n])
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// EvalOptions resolves the scheduler and assembles the engine options
// the config describes. Run-scoped extras (Obs, Cache, Workers) are the
// caller's to attach.
func (c Config) EvalOptions() (core.EvalOptions, error) {
	sched, err := core.SchedulerByName(c.Scheduler)
	if err != nil {
		return core.EvalOptions{}, err
	}
	return core.EvalOptions{
		Scheduler: sched,
		K:         c.K,
		D:         c.D,
		Comm:      c.Comm(),
		Verify:    c.Verify,
	}, nil
}

// Key is the singleflight/dedup identity of an evaluation: the compiled
// program's content fingerprint plus every option the engine observes.
// Two requests with equal keys perform identical work — the daemon
// collapses them onto one in-flight evaluation. Source text is
// deliberately absent: a bench submission and the equivalent inline
// source dedupe against each other through the program fingerprint.
func (c Config) Key(p *ir.Program) string { return c.KeyOf(p.Fingerprint()) }

// KeyOf is Key for a program whose fingerprint the caller already
// holds, so a request hashes its program once for the key and its log.
// The key is the fingerprint's hex, then
// "|sched=%s|k=%d|d=%d|local=%d|noover=%t|epr=%d|verify=%t|profile=%t"
// over the options, appended in a stack buffer: the string is its one
// allocation.
func (c Config) KeyOf(fp ir.Fingerprint) string {
	var buf [256]byte
	b := hex.AppendEncode(buf[:0], fp[:])
	b = append(b, "|sched="...)
	b = append(b, c.Scheduler...)
	b = append(b, "|k="...)
	b = strconv.AppendInt(b, int64(c.K), 10)
	b = append(b, "|d="...)
	b = strconv.AppendInt(b, int64(c.D), 10)
	b = append(b, "|local="...)
	b = strconv.AppendInt(b, int64(c.Local), 10)
	b = append(b, "|noover="...)
	b = strconv.AppendBool(b, c.NoOverlap)
	b = append(b, "|epr="...)
	b = strconv.AppendInt(b, int64(c.EPRBandwidth), 10)
	b = append(b, "|verify="...)
	b = strconv.AppendBool(b, c.Verify)
	b = append(b, "|profile="...)
	b = strconv.AppendBool(b, c.Profile)
	return string(b)
}
