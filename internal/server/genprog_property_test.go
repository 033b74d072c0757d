package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"reflect"
	"testing"

	"github.com/scaffold-go/multisimd/internal/core"
	"github.com/scaffold-go/multisimd/internal/request"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// TestCompileMatchesInProcessEngine is the service-side determinism
// property: soak-generated programs submitted to /v1/compile produce
// exactly the metrics the in-process engine computes for the same
// request.Config — the daemon adds transport, dedup and caching but
// never changes a result. Configs rotate across schedulers, machine
// shapes and communication models; every failure logs the seed and a
// replay hint.
func TestCompileMatchesInProcessEngine(t *testing.T) {
	const trials = 8
	_, ts := newTestServer(t, Options{})

	for trial := 0; trial < trials; trial++ {
		seed := int64(1000 + trial)
		gen := verify.ProgramGenOptions{Loops: true, Wide: trial%2 == 1, Measure: trial%3 == 2}
		p := verify.RandomProgram(rand.New(rand.NewSource(seed)), gen)
		src, err := verify.ProgramScaffold(p)
		if err != nil {
			t.Fatalf("trial %d seed %d: scaffold: %v", trial, seed, err)
		}

		cfg := request.Config{
			Source:    src,
			Scheduler: []string{"lpfs", "rcp"}[trial%2],
			K:         []int{2, 4, 8}[trial%3],
			D:         []int{0, 0, 2, 4}[trial%4],
			Local:     []int{0, 2, -1}[trial%3],
			NoOverlap: trial%5 == 3,
			Verify:    true,
		}.WithDefaults()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d seed %d: config: %v", trial, seed, err)
		}

		// In-process reference: same Config, same Build + Evaluate path.
		prog, err := cfg.Build(nil)
		if err != nil {
			t.Fatalf("trial %d seed %d: build: %v", trial, seed, err)
		}
		eopts, err := cfg.EvalOptions()
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Evaluate(prog, eopts)
		if err != nil {
			t.Fatalf("trial %d seed %d: evaluate: %v", trial, seed, err)
		}

		body, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := post(t, ts.URL+"/v1/compile", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trial %d seed %d: /v1/compile: %d %s\nreplay: verify.RandomProgram(rand.New(rand.NewSource(%d)), %+v)",
				trial, seed, resp.StatusCode, data, seed, gen)
		}
		var cr CompileResponse
		decodeInto(t, data, &cr)
		if !reflect.DeepEqual(cr.Metrics, want.Wire()) {
			t.Errorf("trial %d seed %d (%s k=%d d=%d local=%d): service metrics diverge from engine\n service: %+v\n engine:  %+v\nreplay: verify.RandomProgram(rand.New(rand.NewSource(%d)), %+v)",
				trial, seed, cfg.Scheduler, cfg.K, cfg.D, cfg.Local, cr.Metrics, want.Wire(), seed, gen)
		}

		// Resubmitting the identical request must return identical
		// metrics (warm daemon cache vs cold).
		resp2, data2 := post(t, ts.URL+"/v1/compile", string(body))
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("trial %d seed %d: warm resubmit: %d %s", trial, seed, resp2.StatusCode, data2)
		}
		var cr2 CompileResponse
		decodeInto(t, data2, &cr2)
		if !reflect.DeepEqual(cr2.Metrics, cr.Metrics) {
			t.Errorf("trial %d seed %d: warm resubmit metrics diverge:\n cold: %+v\n warm: %+v", trial, seed, cr.Metrics, cr2.Metrics)
		}
	}
}
