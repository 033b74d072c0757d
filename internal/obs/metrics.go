package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter
// (from a nil Registry) is inert.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge is inert.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Max raises the gauge to v if v is larger (peak tracking).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of Histogram: bucket i holds values
// whose bit length is i, i.e. upper bound 2^i - 1, with the last bucket
// catching everything beyond (+Inf).
const histBuckets = 32

// Histogram is a lock-free power-of-two-bucket histogram of int64
// observations. A nil *Histogram is inert.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucket clamps v to zero from below and returns it with its bucket.
func bucket(v int64) (int64, int) {
	if v < 0 {
		v = 0
	}
	return v, min(bits.Len64(uint64(v)), histBuckets-1)
}

// Observe records v (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	v, idx := bucket(v)
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[idx].Add(1)
}

// HistBatch gathers observations for one Histogram in plain memory, so
// a caller that observes many values at once (one per schedule step)
// pays the shared histogram's contended atomic adds once per touched
// bucket instead of three per value. The zero value is empty.
type HistBatch struct {
	count, sum int64
	buckets    [histBuckets]int64
}

// Observe records v in the batch, bucketed as Histogram.Observe does.
func (b *HistBatch) Observe(v int64) {
	v, idx := bucket(v)
	b.count++
	b.sum += v
	b.buckets[idx]++
}

// Add folds batch b into h: afterwards h reads as if each of b's values
// had been observed on it directly.
func (h *Histogram) Add(b *HistBatch) {
	if h == nil || b.count == 0 {
		return
	}
	h.count.Add(b.count)
	h.sum.Add(b.sum)
	for i, n := range b.buckets {
		if n != 0 {
			h.buckets[i].Add(n)
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// bucketBound is bucket i's inclusive upper bound; -1 marks +Inf.
func bucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return (int64(1) << i) - 1
}

// Registry is a named collection of metrics. Lookup methods create the
// metric on first use; instruments are atomics, so the registry lock is
// only held while resolving names. A nil *Registry returns nil
// instruments, whose methods all no-op — disabled metrics cost a nil
// check per operation.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistBucket is one cumulative histogram bucket in a snapshot.
type HistBucket struct {
	// LE is the inclusive upper bound; -1 means +Inf.
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistSnapshot is a histogram's state in a snapshot. P50/P95/P99 are
// the quantile bucket bounds derived from the cumulative buckets (see
// Quantile); they are upper bounds, not interpolated values.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	P50     int64        `json:"p50"`
	P95     int64        `json:"p95"`
	P99     int64        `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Quantile returns the upper bound of the first bucket whose cumulative
// count covers quantile q (0 < q <= 1) — the tightest power-of-two
// bound b with P(X <= b) >= q. It returns 0 for an empty histogram and
// -1 when the rank lands in the +Inf bucket. Because it reads only the
// snapshot's already-consistent cumulative bucket list, it is safe
// against torn scrapes by construction.
func (h HistSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	for _, bk := range h.Buckets {
		if bk.Count >= rank {
			return bk.LE
		}
	}
	return h.Buckets[len(h.Buckets)-1].LE
}

// Snapshot is a point-in-time copy of every metric, the expvar-style
// JSON form written by -metrics-out.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{Sum: h.Sum()}
		var cum int64
		for i := 0; i < histBuckets; i++ {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			cum += n
			hs.Buckets = append(hs.Buckets, HistBucket{LE: bucketBound(i), Count: cum})
		}
		// Count derives from the buckets rather than the separate count
		// cell: Observe touches count before buckets, so an observation
		// landing between the two reads would otherwise produce a snapshot
		// whose +Inf bucket sits below its count — an invalid (decreasing)
		// Prometheus cumulative series under concurrent scrape.
		hs.Count = cum
		hs.P50 = hs.Quantile(0.50)
		hs.P95 = hs.Quantile(0.95)
		hs.P99 = hs.Quantile(0.99)
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Snapshot(), "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteJSONFile writes the snapshot to path.
func (r *Registry) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// promName maps a metric name onto the Prometheus charset: characters
// outside [a-zA-Z0-9_:] become '_' (so "eval_cache.comm.hits" serves as
// "eval_cache_comm_hits").
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (the -metrics-addr endpoint's payload). Histograms emit
// cumulative le-labelled buckets plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		for _, bk := range h.Buckets {
			le := "+Inf"
			if bk.LE >= 0 {
				le = fmt.Sprint(bk.LE)
			}
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", pn, le, bk.Count)
		}
		if n := len(h.Buckets); n == 0 || h.Buckets[n-1].LE >= 0 {
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		}
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", pn, h.Sum, pn, h.Count)
		// Quantile bounds export as companion gauges (quantile labels on
		// a TYPE histogram family would be invalid exposition format).
		for _, qb := range [...]struct {
			suffix string
			v      int64
		}{{"p50", h.P50}, {"p95", h.P95}, {"p99", h.P99}} {
			fmt.Fprintf(&b, "# TYPE %s_%s gauge\n%s_%s %d\n", pn, qb.suffix, pn, qb.suffix, qb.v)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
