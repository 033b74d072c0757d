package request_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/ir"
	"github.com/scaffold-go/multisimd/internal/request"
	"github.com/scaffold-go/multisimd/internal/schedule"
)

const tinySource = `
module kernel(qbit x[2]) {
  H(x[0]);
  CNOT(x[0], x[1]);
}
module main() {
  qbit q[4];
  kernel(q[0:2]);
  kernel(q[2:4]);
}
`

func valid() request.Config {
	return request.Config{Source: tinySource}.WithDefaults()
}

func TestWithDefaults(t *testing.T) {
	c := valid()
	if c.Scheduler != "lpfs" || c.K != 4 || c.Entry != "main" || c.FTh != 2000 {
		t.Errorf("defaults not applied: %+v", c)
	}
	// Explicit settings survive.
	c = request.Config{Source: tinySource, Scheduler: "rcp", K: 2, Entry: "kernel", FTh: 7}.WithDefaults()
	if c.Scheduler != "rcp" || c.K != 2 || c.Entry != "kernel" || c.FTh != 7 {
		t.Errorf("explicit fields clobbered: %+v", c)
	}
}

// TestFlagJSONParity is the satellite's point: flag parsing and JSON
// decoding land in the same struct, so one validation path covers both
// front ends. Every shared field set via flags must equal the same
// request decoded from JSON.
func TestFlagJSONParity(t *testing.T) {
	var fromFlags request.Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fromFlags.RegisterFlags(fs)
	err := fs.Parse([]string{
		"-sched", "rcp", "-k", "8", "-d", "16", "-local", "-1",
		"-no-overlap", "-epr", "2", "-fth", "500", "-entry", "main",
		"-bench", "Grovers", "-verify",
	})
	if err != nil {
		t.Fatal(err)
	}

	var fromJSON request.Config
	blob := `{"bench":"Grovers","scheduler":"rcp","k":8,"d":16,"local":-1,
	          "no_overlap":true,"epr_bandwidth":2,"fth":500,"entry":"main","verify":true}`
	if err := json.Unmarshal([]byte(blob), &fromJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFlags.WithDefaults(), fromJSON.WithDefaults()) {
		t.Errorf("flag and JSON decoding diverge:\nflags %+v\njson  %+v", fromFlags, fromJSON)
	}
	if err := fromJSON.WithDefaults().Validate(); err != nil {
		t.Errorf("shared config failed validation: %v", err)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*request.Config)
		want string // substring of the error; empty = valid
	}{
		{"valid source", func(c *request.Config) {}, ""},
		{"valid bench", func(c *request.Config) { c.Source = ""; c.Bench = "Grovers" }, ""},
		{"no program", func(c *request.Config) { c.Source = "" }, "one of source or bench"},
		{"both programs", func(c *request.Config) { c.Bench = "Grovers" }, "mutually exclusive"},
		{"unknown bench", func(c *request.Config) { c.Source = ""; c.Bench = "nope" }, "unknown benchmark"},
		{"unknown scheduler", func(c *request.Config) { c.Scheduler = "quantum" }, "unknown scheduler"},
		{"bad k", func(c *request.Config) { c.K = -2 }, "k must be"},
		{"max k", func(c *request.Config) { c.K = request.MaxK }, ""},
		{"k above max", func(c *request.Config) { c.K = request.MaxK + 1 }, "k must be in [1, 1024]"},
		{"bad d", func(c *request.Config) { c.D = -1 }, "d must be"},
		{"bad fth", func(c *request.Config) { c.FTh = -1 }, "fth must be"},
		{"bad epr", func(c *request.Config) { c.EPRBandwidth = -1 }, "epr_bandwidth must be"},
	}
	for _, tc := range cases {
		c := valid()
		tc.mut(&c)
		err := c.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestBuildAndEvalOptions(t *testing.T) {
	c := valid()
	c.Local = -1
	c.Verify = true
	p, err := c.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := c.EvalOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Scheduler.Name() != "lpfs" || opts.K != 4 || !opts.Verify {
		t.Errorf("EvalOptions mismatch: %+v", opts)
	}
	if opts.Comm != (comm.Options{LocalCapacity: -1}) {
		t.Errorf("Comm mismatch: %+v", opts.Comm)
	}
	m, err := core.Evaluate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalGates == 0 || m.CommCycles == 0 {
		t.Errorf("degenerate metrics: %+v", m)
	}
}

// TestKeyDedupesAcrossSpelling pins the singleflight contract: the same
// circuit submitted as inline source and with cosmetic renames keys
// identically, while any engine-visible difference (k, comm model,
// verify) separates keys.
func TestKeyDedupesAcrossSpelling(t *testing.T) {
	c := valid()
	p1, err := c.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	renamed := strings.ReplaceAll(tinySource, "x[", "y[")
	renamed = strings.ReplaceAll(renamed, "(qbit x", "(qbit y")
	c2 := request.Config{Source: renamed}.WithDefaults()
	p2, err := c2.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Key(p1) != c2.Key(p2) {
		t.Error("register renaming changed the dedup key")
	}
	if c.KeyOf(p1.Fingerprint()) != c.Key(p1) {
		t.Error("KeyOf(fingerprint) differs from Key(program)")
	}

	for name, mut := range map[string]func(*request.Config){
		"k":       func(c *request.Config) { c.K = 8 },
		"d":       func(c *request.Config) { c.D = 2 },
		"local":   func(c *request.Config) { c.Local = -1 },
		"overlap": func(c *request.Config) { c.NoOverlap = true },
		"epr":     func(c *request.Config) { c.EPRBandwidth = 1 },
		"verify":  func(c *request.Config) { c.Verify = true },
		"profile": func(c *request.Config) { c.Profile = true },
		"sched":   func(c *request.Config) { c.Scheduler = "rcp" },
	} {
		mod := valid()
		mut(&mod)
		if mod.Key(p1) == c.Key(p1) {
			t.Errorf("changing %s did not change the dedup key", name)
		}
	}
}

// TestKeyOfBytes pins KeyOf's bytes to the fmt.Sprintf rendering it
// replaced, over every registered scheduler, d = 0/3, local = -1/0/5,
// epr = 0/2, every bool and a k that fits a byte and one that does not;
// and it pins KeyOf to one allocation, the string.
func TestKeyOfBytes(t *testing.T) {
	var fp ir.Fingerprint
	for i := range fp {
		fp[i] = byte(37*i + 11)
	}
	n := 0
	for _, sched := range schedule.Names() {
		for _, k := range []int{4, request.MaxK} {
			for _, d := range []int{0, 3} {
				for _, local := range []int{-1, 0, 5} {
					for _, epr := range []int{0, 2} {
						for bits := 0; bits < 8; bits++ {
							c := request.Config{Scheduler: sched, K: k, D: d, Local: local, EPRBandwidth: epr,
								NoOverlap: bits&1 != 0, Verify: bits&2 != 0, Profile: bits&4 != 0}
							want := fmt.Sprintf("%s|sched=%s|k=%d|d=%d|local=%d|noover=%t|epr=%d|verify=%t|profile=%t",
								fp, c.Scheduler, c.K, c.D, c.Local, c.NoOverlap, c.EPRBandwidth, c.Verify, c.Profile)
							if got := c.KeyOf(fp); got != want {
								t.Fatalf("KeyOf = %q, want %q", got, want)
							}
							n++
						}
					}
				}
			}
		}
	}
	if n == 0 || len(schedule.Names()) < 2 {
		t.Fatalf("%d keys over schedulers %v", n, schedule.Names())
	}
	c := valid()
	if a := testing.AllocsPerRun(100, func() { _ = c.KeyOf(fp) }); a != 1 {
		t.Errorf("KeyOf allocates %.0f times, want 1", a)
	}
}

// BenchmarkKeyOf measures forming one request's flight key.
func BenchmarkKeyOf(b *testing.B) {
	c := valid()
	c.Local, c.EPRBandwidth = -1, 2
	var fp ir.Fingerprint
	b.ReportAllocs()
	for b.Loop() {
		c.KeyOf(fp)
	}
}

func TestLabel(t *testing.T) {
	if got := (request.Config{Bench: "SHA-1"}).Label(); got != "SHA-1" {
		t.Errorf("bench label %q", got)
	}
	if got := (request.Config{Source: "x"}).Label(); got != "program" {
		t.Errorf("source label %q", got)
	}
}

// TestBuildKeyBytes pins the bytes of the build key: SHA-256 over the
// source's length and bytes, the entry's length and bytes, then FTh,
// each length and FTh as a little-endian uint64. Two keys are pinned
// literally, and sources around the hashing buffer's size must match a
// straightforward hashing of the same stream.
func TestBuildKeyBytes(t *testing.T) {
	for _, tc := range []struct {
		cfg  request.Config
		want string
	}{
		{request.Config{Bench: "SHA-1"}.WithDefaults(), "1ee320770cb82c5d4ff70c2eb65a8b11c690690204c70ab8639840dccf7d6abe"},
		{request.Config{Source: tinySource, Entry: "kernel", FTh: 7}, "304db5518fec576674c9830183f549d1c48246ef3d4a6f3883cd6f672eac75ea"},
	} {
		if got := fmt.Sprintf("%x", tc.cfg.BuildKey()); got != tc.want {
			t.Errorf("%s: build key %s, want %s", tc.cfg.Label(), got, tc.want)
		}
	}
	reference := func(c request.Config) [sha256.Size]byte {
		var stream []byte
		stream = binary.LittleEndian.AppendUint64(stream, uint64(len(c.Source)))
		stream = append(stream, c.Source...)
		stream = binary.LittleEndian.AppendUint64(stream, uint64(len(c.Entry)))
		stream = append(stream, c.Entry...)
		stream = binary.LittleEndian.AppendUint64(stream, uint64(c.FTh))
		return sha256.Sum256(stream)
	}
	for _, n := range []int{0, 1, 495, 496, 503, 504, 505, 512, 1000, 1016, 1017, 5000} {
		for _, entry := range []string{"", "main", strings.Repeat("e", 600)} {
			c := request.Config{Source: strings.Repeat("x", n), Entry: entry, FTh: int64(n) + 3}
			if got, want := c.BuildKey(), reference(c); got != want {
				t.Errorf("source of %d bytes, entry of %d: build key %x, want %x", n, len(entry), got, want)
			}
		}
	}
}

// TestBuildKeyAllocatesNothing: keying a request hashes its source in
// place, without copying it.
func TestBuildKeyAllocatesNothing(t *testing.T) {
	for _, c := range []request.Config{
		request.Config{Bench: "SHA-1"}.WithDefaults(),
		request.Config{Source: strings.Repeat("H(q[0]);\n", 2000)}.WithDefaults(),
	} {
		if n := testing.AllocsPerRun(20, func() { _ = c.BuildKey() }); n != 0 {
			t.Errorf("%s: BuildKey allocates %.0f times", c.Label(), n)
		}
	}
}

// TestBuildKey pins what keys a build: the resolved source, Entry and
// FTh change it, every other field leaves it alone, and a benchmark
// name shares its key with the benchmark's own source sent inline.
func TestBuildKey(t *testing.T) {
	sha1, ok := bench.ByName("SHA-1")
	if !ok {
		t.Fatal("no SHA-1 benchmark")
	}
	base := request.Config{Bench: "SHA-1"}.WithDefaults()
	if inline := (request.Config{Source: sha1.Source}).WithDefaults(); inline.BuildKey() != base.BuildKey() {
		t.Error("the bench name and its inline source have different build keys")
	}
	for _, tc := range []struct {
		field   string
		mut     func(*request.Config)
		changes bool
	}{
		{"source", func(c *request.Config) { c.Bench, c.Source = "", sha1.Source+"\n" }, true},
		{"bench", func(c *request.Config) { c.Bench = "Grovers" }, true},
		{"entry", func(c *request.Config) { c.Entry = "kernel" }, true},
		{"fth", func(c *request.Config) { c.FTh = 1 }, true},
		{"k", func(c *request.Config) { c.K = 8 }, false},
		{"d", func(c *request.Config) { c.D = 2 }, false},
		{"sched", func(c *request.Config) { c.Scheduler = "rcp" }, false},
		{"local", func(c *request.Config) { c.Local = -1 }, false},
		{"overlap", func(c *request.Config) { c.NoOverlap = true }, false},
		{"epr", func(c *request.Config) { c.EPRBandwidth = 1 }, false},
		{"verify", func(c *request.Config) { c.Verify = true }, false},
		{"profile", func(c *request.Config) { c.Profile = true }, false},
	} {
		mod := base
		tc.mut(&mod)
		if got := mod.BuildKey() != base.BuildKey(); got != tc.changes {
			t.Errorf("changing %s: build key changed %v, want %v", tc.field, got, tc.changes)
		}
	}
}
