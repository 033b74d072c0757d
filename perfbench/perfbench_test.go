package main

import (
	"bytes"
	"testing"
	"time"

	"github.com/scaffold-go/multisimd/internal/bench"
	"github.com/scaffold-go/multisimd/internal/core"
)

// sequenceBytes renders a workload's request sequence as the bytes the
// daemon receives.
func sequenceBytes(t *testing.T, reqs []svcReq) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, r := range reqs {
		b.Write(r.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameRequestSequence(t *testing.T) {
	cold := func(seed int64) []byte {
		reqs, err := coldRequests(seed, 12)
		if err != nil {
			t.Fatal(err)
		}
		return sequenceBytes(t, reqs)
	}
	for name, gen := range map[string]func(int64) []byte{
		"service-warm": func(seed int64) []byte { return sequenceBytes(t, warmRequests(seed, 3)) },
		"service-cold": cold,
		"paper-sweep": func(seed int64) []byte {
			var b bytes.Buffer
			for _, i := range sweepOrder(seed, len(bench.Gated()), 3) {
				b.WriteString(bench.Gated()[i].Name + "\n")
			}
			return b.Bytes()
		},
	} {
		a, b, other := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so the helper must sort
		}
		return s
	}
	for _, c := range []struct {
		q       float64
		n       int
		ok      bool
		nearest float64
	}{
		{0.95, 199, false, 0},
		{0.95, 200, true, 190},
		{0.99, 999, false, 0},
		{0.99, 1000, true, 990},
		{0.50, 19, false, 0},
		{0.50, 20, true, 10},
	} {
		got, err := percentile(samples(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%t", c.q*100, c.n, err, c.ok)
			continue
		}
		if c.ok && got != c.nearest {
			t.Errorf("p%g of %d samples = %v, want %v", c.q*100, c.n, got, c.nearest)
		}
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{id: 0, parent: -1, name: "root", start: ms(0), end: ms(100)},
		{id: 1, parent: 0, name: "a", start: ms(10), end: ms(40)},
		{id: 2, parent: 0, name: "b", start: ms(30), end: ms(60)},  // overlaps a
		{id: 3, parent: 1, name: "c", start: ms(15), end: ms(20)},  // under a
		{id: 4, parent: 0, name: "b", start: ms(90), end: ms(120)}, // runs past root
		{id: 5, parent: -1, name: "root", start: ms(200), end: ms(210)},
	}
	want := map[string]struct {
		calls      int
		self, wall time.Duration
	}{
		// root: 110 of wall; children cover [10,60] and [90,100] of the first.
		"root": {2, ms(40) + ms(10), ms(110)},
		"a":    {1, ms(25), ms(30)},
		"b":    {2, ms(60), ms(60)},
		"c":    {1, ms(5), ms(5)},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("got %d span names, want %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil || g.calls != w.calls || g.self != w.self || g.wall != w.wall {
			t.Errorf("%s: got %+v, want calls %d self %v wall %v", name, g, w.calls, w.self, w.wall)
		}
	}
}

// TestReplayMatchesProgram checks that the traced run's layer-by-layer
// replay does the program's work: the replayed front end yields the
// fingerprint Config.Build yields, the replayed evaluation the metrics
// core.Evaluate computes, and a replayed paper-sweep op every cell of
// its figure rows.
func TestReplayMatchesProgram(t *testing.T) {
	reqs := warmSet()
	cold, err := coldRequests(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	reqs = append(reqs, cold...)
	rp := newReplayer()
	for _, r := range reqs {
		p, err := r.cfg.Build(nil)
		if err != nil {
			t.Fatal(err)
		}
		q, _, err := frontend(scope{}, r.src, r.cfg.FTh)
		if err != nil {
			t.Fatal(err)
		}
		if p.Fingerprint() != q.Fingerprint() {
			t.Errorf("%s k=%d: replayed front end fingerprint differs from Config.Build", r.cfg.Label(), r.cfg.K)
			continue
		}
		eopts, err := r.cfg.EvalOptions()
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.Evaluate(p, eopts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rp.evaluate(scope{}, q, eopts.Scheduler, r.cfg.K, r.cfg.D, r.cfg.Comm())
		if err == nil {
			err = res.matches(m)
		}
		if err != nil {
			t.Errorf("%s k=%d: %v", r.cfg.Label(), r.cfg.K, err)
		}
	}
	for _, b := range bench.Gated()[:2] {
		cells, err := sweepOp(scope{}, b, 2)
		if err == nil {
			_, err = replaySweep(scope{}, b, cells, newReplayer())
		}
		if err != nil {
			t.Errorf("paper-sweep %s: %v", b.Name, err)
		}
	}
}
