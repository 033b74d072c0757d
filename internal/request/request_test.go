package request_test

import (
	"encoding/json"
	"flag"
	"reflect"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/request"
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

func TestLabel(t *testing.T) {
	if got := (request.Config{Bench: "SHA-1"}).Label(); got != "SHA-1" {
		t.Errorf("bench label %q", got)
	}
	if got := (request.Config{Source: "x"}).Label(); got != "program" {
		t.Errorf("source label %q", got)
	}
}
