package verify_test

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/scaffold-go/multisimd/internal/comm"
	"github.com/scaffold-go/multisimd/internal/dag"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/schedule"
	"github.com/scaffold-go/multisimd/internal/verify"
)

// FuzzVerifySchedule is the randomized legality fuzzer: any seeded
// module, scheduled by any registered scheduler on any machine shape,
// must produce a schedule and move list the verifier accepts. Seeds run
// in the normal suite; `go test -fuzz FuzzVerifySchedule ./internal/verify`
// explores further (the CI smoke job runs it for 30s).
func FuzzVerifySchedule(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(5), uint8(2), uint8(0), uint8(0))
	f.Add(int64(2), uint8(80), uint8(4), uint8(4), uint8(3), uint8(1))
	f.Add(int64(3), uint8(1), uint8(2), uint8(1), uint8(0), uint8(2))
	f.Add(int64(99), uint8(0), uint8(7), uint8(8), uint8(2), uint8(7))
	f.Add(int64(-7), uint8(200), uint8(3), uint8(3), uint8(4), uint8(5))
	// optRaw bit 16 is NoOverlap, bit 32 a finite EPR channel.
	f.Add(int64(5), uint8(60), uint8(5), uint8(3), uint8(0), uint8(16))
	f.Add(int64(6), uint8(90), uint8(6), uint8(2), uint8(0), uint8(36))
	f.Add(int64(8), uint8(120), uint8(6), uint8(4), uint8(1), uint8(57))
	f.Fuzz(func(t *testing.T, seed int64, nOps, nQubits, kRaw, dRaw, optRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		opts := verify.GenOptions{
			Ops:     int(nOps)%120 + 1,
			Qubits:  int(nQubits)%8 + 2,
			Wide:    optRaw&1 != 0,
			Measure: optRaw&2 != 0,
		}
		t.Cleanup(func() {
			if t.Failed() {
				t.Logf("failing seed %d; replay: m := verify.RandomLeaf(rand.New(rand.NewSource(%d)), verify.GenOptions{Ops: %d, Qubits: %d, Wide: %t, Measure: %t})",
					seed, seed, opts.Ops, opts.Qubits, opts.Wide, opts.Measure)
			}
		})
		m := verify.RandomLeaf(rng, opts)
		g, err := dag.Build(m)
		if err != nil {
			t.Fatalf("generator emitted an unbuildable module: %v", err)
		}
		k := int(kRaw)%8 + 1
		d := int(dRaw) % 6
		maxArity := 0
		for i := range m.Ops {
			if a := len(m.Ops[i].Args); a > maxArity {
				maxArity = a
			}
		}
		copts := comm.Options{}
		switch optRaw >> 2 & 3 {
		case 1:
			copts.LocalCapacity = int(optRaw)%5 + 1
		case 2:
			copts.LocalCapacity = -1
		}
		copts.NoOverlap = optRaw&16 != 0
		if optRaw&32 != 0 {
			copts.EPRBandwidth = int(optRaw)%4 + 1
		}
		for _, name := range schedule.Names() {
			s, err := schedule.MustLookup(name).Schedule(m, g, k, d)
			if err != nil {
				if d > 0 && maxArity > d {
					continue // infeasible d: erroring out is the contract
				}
				t.Fatalf("%s k=%d d=%d on %d ops: %v", name, k, d, len(m.Ops), err)
			}
			if err := verify.Schedule(s, g); err != nil {
				t.Fatalf("%s: illegal schedule: %v", name, err)
			}
			res, err := comm.Analyze(s, copts)
			if err != nil {
				t.Fatalf("%s: comm: %v", name, err)
			}
			if err := verify.Moves(s, res, copts); err != nil {
				t.Fatalf("%s opts=%+v: inconsistent move list: %v", name, copts, err)
			}
		}
	})
}

// FuzzGeneratorQASMRoundTrip asserts the generator's QASM-HL emission is
// always accepted by the QASM reader and round-trips shape-identically —
// the invariant behind seeding the parser corpora from generator output.
func FuzzGeneratorQASMRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(4), uint8(0))
	f.Add(int64(42), uint8(60), uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nOps, nQubits, optRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		opts := verify.GenOptions{
			Ops:     int(nOps)%100 + 1,
			Qubits:  int(nQubits)%8 + 2,
			Wide:    optRaw&1 != 0,
			Measure: optRaw&2 != 0,
		}
		t.Cleanup(func() {
			if t.Failed() {
				t.Logf("failing seed %d; replay: m := verify.RandomLeaf(rand.New(rand.NewSource(%d)), verify.GenOptions{Ops: %d, Qubits: %d, Wide: %t, Measure: %t})",
					seed, seed, opts.Ops, opts.Qubits, opts.Wide, opts.Measure)
			}
		})
		m := verify.RandomLeaf(rng, opts)
		src, err := verify.QASM(m)
		if err != nil {
			t.Fatal(err)
		}
		decl, insts, err := qasm.Parse(strings.NewReader(src))
		if err != nil {
			t.Fatalf("generator QASM rejected: %v\n%s", err, src)
		}
		if len(decl) != m.TotalSlots() || len(insts) != len(m.Ops) {
			t.Fatalf("round trip changed shape: %d/%d decls, %d/%d insts",
				len(decl), m.TotalSlots(), len(insts), len(m.Ops))
		}
	})
}
