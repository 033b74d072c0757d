package obs

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// batchValues is one seeded value set per worker: schedule-step-like
// counts plus values that land in the first and the last bucket.
func batchValues(workers int) [][]int64 {
	rng := rand.New(rand.NewSource(11))
	out := make([][]int64, workers)
	for w := range out {
		vs := []int64{0, -3, 1, math.MaxInt32, 1 << 31, math.MaxInt64 / 4}
		for i := 0; i < 2000; i++ {
			vs = append(vs, rng.Int63n(1+rng.Int63n(4096)))
		}
		out[w] = vs
	}
	return out
}

// TestHistBatchMatchesObserve: folding batches into a histogram, from
// concurrent goroutines, leaves it exactly as observing each value
// directly does; the Prometheus and JSON expositions are byte-identical.
func TestHistBatchMatchesObserve(t *testing.T) {
	const workers, batch = 4, 64
	values := batchValues(workers)
	direct, batched := NewRegistry(), NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(vs []int64) {
			defer wg.Done()
			h := direct.Histogram("sched.ops_per_step")
			for _, v := range vs {
				h.Observe(v)
			}
		}(values[w])
		go func(vs []int64) {
			defer wg.Done()
			h := batched.Histogram("sched.ops_per_step")
			for len(vs) > 0 {
				var b HistBatch
				n := min(batch, len(vs))
				for _, v := range vs[:n] {
					b.Observe(v)
				}
				h.Add(&b)
				vs = vs[n:]
			}
		}(values[w])
	}
	wg.Wait()
	for _, write := range []func(*Registry, *bytes.Buffer) error{
		func(r *Registry, b *bytes.Buffer) error { return r.WritePrometheus(b) },
		func(r *Registry, b *bytes.Buffer) error { return r.WriteJSON(b) },
	} {
		var want, got bytes.Buffer
		if err := write(direct, &want); err != nil {
			t.Fatal(err)
		}
		if err := write(batched, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("batched exposition differs:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
		}
	}
	if n := batched.Histogram("sched.ops_per_step").Count(); n != int64(workers*len(values[0])) {
		t.Errorf("count %d, want %d", n, workers*len(values[0]))
	}
}

// TestHistBatchEdges: an empty batch and a nil histogram are inert, and
// folding a batch allocates nothing.
func TestHistBatchEdges(t *testing.T) {
	var nilHist *Histogram
	var b HistBatch
	b.Observe(5)
	nilHist.Add(&b)
	h := NewRegistry().Histogram("h")
	h.Add(&HistBatch{})
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("an empty batch recorded count %d, sum %d", h.Count(), h.Sum())
	}
	if n := testing.AllocsPerRun(100, func() {
		var b HistBatch
		for v := int64(0); v < 16; v++ {
			b.Observe(v)
		}
		h.Add(&b)
	}); n != 0 {
		t.Errorf("a batch allocates %.0f times", n)
	}
}

// BenchmarkHistogramObserveParallel is the per-value path: three atomic
// adds per observation, contended across goroutines.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("sched.ops_per_step")
	b.RunParallel(func(pb *testing.PB) {
		var v int64
		for pb.Next() {
			for i := 0; i < 64; i++ {
				h.Observe(v & 63)
				v++
			}
		}
	})
}

// BenchmarkHistogramBatchParallel is the batched path the engine takes
// per fresh schedule: 64 observations gathered locally, then folded
// into the shared histogram once.
func BenchmarkHistogramBatchParallel(b *testing.B) {
	h := NewRegistry().Histogram("sched.ops_per_step")
	b.RunParallel(func(pb *testing.PB) {
		var v int64
		for pb.Next() {
			var hb HistBatch
			for i := 0; i < 64; i++ {
				hb.Observe(v & 63)
				v++
			}
			h.Add(&hb)
		}
	})
}
