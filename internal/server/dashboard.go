package server

// The ops dashboard: GET /v1/dashboard renders a self-contained HTML
// page — inline CSS and inline SVG sparklines, no scripts, no external
// assets (the same discipline as internal/report's HTML artifacts, and
// CI asserts it) — showing what the server is doing right now.
// Refreshing is plain <meta http-equiv="refresh">: the page re-renders
// server-side from the history store, so it works with every asset
// policy a browser can enforce.

import (
	"fmt"
	"html/template"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/obs/telem"
)

// memHistorySamples bounds the in-memory history store used without a
// persistent one; at the default 2s sample period this is five minutes
// of trend.
const memHistorySamples = 150

// startSampler runs the runtime sampler and appends a flattened
// registry snapshot to the history store on one cadence until the
// returned stop function is called.
func (s *Server) startSampler(every time.Duration) func() {
	stopRuntime := obs.StartRuntimeSampler(s.reg, every)
	sample := func() { s.series.Append(time.Now(), telem.Flatten(s.reg.Snapshot())) }
	sample()
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sample()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			stopRuntime()
		})
	}
}

// trendSeries is the dashboard's four sparkline inputs, oldest first.
type trendSeries struct {
	rates, inflight, queued, heap []float64
}

// dashTrendPoints bounds how many points a sparkline folds the window
// onto (an SVG polyline past ~300 points is pixels).
const dashTrendPoints = 300

// dashTrendWindow is how far back the dashboard looks into a persistent
// store, clamped to its retention.
const dashTrendWindow = 6 * time.Hour

// trendFromTelem rebuilds the dashboard trends from the history store:
// hours of persisted history that survive restarts, or the in-memory
// store's last memHistorySamples samples. The returned window is 0
// while there is not enough history yet.
func (s *Server) trendFromTelem(now time.Time) (trendSeries, time.Duration) {
	var t trendSeries
	window := dashTrendWindow
	if s.telem == nil {
		window = memHistorySamples * s.opts.SampleEvery
	} else if ret := s.telem.Retention(); ret > 0 && ret < window {
		window = ret
	}
	from := now.Add(-window)
	step := window / dashTrendPoints
	if step < s.opts.SampleEvery {
		step = s.opts.SampleEvery
	}
	reqs := s.series.Query("server.requests", from, now, step)
	if len(reqs) < 2 {
		// A short history (just-started daemon) can fold into a single
		// step bucket; retry at raw resolution before giving up on the
		// store. Raw is bounded here: little history is the premise.
		step = 0
		reqs = s.series.Query("server.requests", from, now, step)
	}
	if len(reqs) < 2 {
		return t, 0
	}
	for i := 1; i < len(reqs); i++ {
		dt := float64(reqs[i].TSMS-reqs[i-1].TSMS) / 1000
		if dt <= 0 {
			continue
		}
		d := reqs[i].V - reqs[i-1].V
		if d < 0 {
			d = 0 // counter reset across a restart, not negative traffic
		}
		t.rates = append(t.rates, d/dt)
	}
	for _, p := range s.series.Query("server.inflight", from, now, step) {
		t.inflight = append(t.inflight, p.V)
	}
	for _, p := range s.series.Query("server.queued", from, now, step) {
		t.queued = append(t.queued, p.V)
	}
	for _, p := range s.series.Query(obs.GaugeHeapAlloc, from, now, step) {
		t.heap = append(t.heap, p.V/(1<<20))
	}
	return t, window
}

// sparkView is one precomputed SVG sparkline: geometry is done in Go so
// the template stays declarative.
type sparkView struct {
	Title  string
	Latest string
	Points string // polyline points, empty when fewer than 2 samples
	W, H   int
}

// sparkline builds a sparkView from a series (oldest first).
func sparkline(title, latest string, series []float64) sparkView {
	const w, h = 220, 40
	v := sparkView{Title: title, Latest: latest, W: w, H: h}
	if len(series) < 2 {
		return v
	}
	lo, hi := series[0], series[0]
	for _, x := range series {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	var b strings.Builder
	for i, x := range series {
		px := float64(i) / float64(len(series)-1) * float64(w-4)
		py := float64(h-4) - (x-lo)/span*float64(h-8)
		fmt.Fprintf(&b, "%.1f,%.1f ", px+2, py+2)
	}
	v.Points = strings.TrimSpace(b.String())
	return v
}

// dashRow is one key/value line of the dashboard status block.
type dashRow struct{ Name, Value string }

// dashView is the template's input.
type dashView struct {
	Service   string
	Refresh   int
	Generated string
	Status    []dashRow
	Latency   []dashRow
	Sparks    []sparkView
	Flights   []FlightState
	Slow      []obs.RequestRecord
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	state := s.debugState()
	snap := s.reg.Snapshot()

	trends, window := s.trendFromTelem(time.Now())
	latestRate := 0.0
	if n := len(trends.rates); n > 0 {
		latestRate = trends.rates[n-1]
	}
	rateTitle := "requests/s"
	if window > 0 {
		rateTitle = fmt.Sprintf("requests/s (last %s)", window.Round(time.Second))
	}

	cache := state.Cache
	schedTotal := cache.SchedHits + cache.SchedMisses
	schedRate := 0.0
	if schedTotal > 0 {
		schedRate = float64(cache.SchedHits) / float64(schedTotal)
	}

	refresh := int(s.opts.SampleEvery / time.Second)
	if refresh < 1 {
		refresh = 2
	}
	view := dashView{
		Service:   "qschedd",
		Refresh:   refresh,
		Generated: time.Now().UTC().Format(accessTimeFormat),
		Status: []dashRow{
			{"status", state.Status},
			{"uptime", time.Duration(state.UptimeMS * float64(time.Millisecond)).Round(time.Second).String()},
			{"requests", fmt.Sprint(s.reqsAll.Value())},
			{"errors", fmt.Sprint(s.errsAll.Value())},
			{"deduped", fmt.Sprint(s.dedupCounter.Value())},
			{"rejected (429)", fmt.Sprint(s.rejectCounter.Value())},
			{"inflight / max", fmt.Sprintf("%d / %d", state.Inflight, state.MaxInflight)},
			{"queued / cap", fmt.Sprintf("%d / %d", state.QueueDepth, state.QueueCap)},
			{"sched cache hit rate", fmt.Sprintf("%.1f%% (%d/%d)", schedRate*100, cache.SchedHits, schedTotal)},
			{"comm cache hit rate", fmt.Sprintf("%.1f%%", cache.CommHitRate()*100)},
			{"mem cache", fmt.Sprintf("%d+%d entries, %.1f MiB, %d evicted",
				cache.SchedEntries, cache.CommEntries, float64(cache.MemBytes)/(1<<20), cache.MemEvictions)},
			{"disk cache", fmt.Sprintf("%d records, %.1f MiB, %d hits / %d misses",
				cache.DiskEntries, float64(cache.DiskBytes)/(1<<20), cache.DiskHits, cache.DiskMisses)},
			{"disk writes / corrupt", fmt.Sprintf("%d / %d", cache.DiskWrites, cache.DiskCorrupt)},
			{"goroutines", fmt.Sprint(state.Runtime.Goroutines)},
			{"heap", fmt.Sprintf("%.1f MiB", float64(state.Runtime.HeapAllocBytes)/(1<<20))},
			{"gc pauses", fmt.Sprintf("%d total, %.2fms last", state.Runtime.GCCount,
				float64(state.Runtime.GCPauseLastNS)/1e6)},
		},
		Sparks: []sparkView{
			sparkline(rateTitle, fmt.Sprintf("%.1f", latestRate), trends.rates),
			sparkline("inflight", fmt.Sprint(state.Inflight), trends.inflight),
			sparkline("queued", fmt.Sprint(state.QueueDepth), trends.queued),
			sparkline("heap MiB", fmt.Sprintf("%.1f", float64(state.Runtime.HeapAllocBytes)/(1<<20)), trends.heap),
		},
		Flights: state.Flights,
		Slow:    state.SlowRequests,
	}
	if ts := state.Telemetry; ts != nil {
		view.Status = append(view.Status,
			dashRow{"telemetry", fmt.Sprintf("%d segments, %.1f MiB, %d series, %d buffered",
				ts.Segments, float64(ts.Bytes)/(1<<20), ts.Series, ts.BufferedSamples)},
			dashRow{"telemetry maintenance", fmt.Sprintf("%d sealed, %d downsampled, %d aged out, %d over budget, %d corrupt",
				ts.Sealed, ts.Downsampled, ts.DroppedAge, ts.DroppedBudget, ts.Corrupt)},
		)
	}
	// Latency quantile table: every endpoint histogram plus the
	// aggregate, from the same snapshot /metrics serves.
	for _, name := range []string{"server.latency_ms", "server.compile.latency_ms",
		"server.schedule.latency_ms", "server.report.latency_ms", "server.verify.latency_ms"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			continue
		}
		label := strings.TrimSuffix(strings.TrimPrefix(name, "server."), ".latency_ms")
		if label == "latency_ms" {
			label = "all"
		}
		view.Latency = append(view.Latency, dashRow{
			label,
			fmt.Sprintf("n=%d p50≤%s p95≤%s p99≤%s", h.Count,
				quantileLabel(h.P50), quantileLabel(h.P95), quantileLabel(h.P99)),
		})
	}

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = dashTemplate.Execute(w, view)
}

// quantileLabel renders a power-of-two quantile bound, -1 being +Inf.
func quantileLabel(v int64) string {
	if v < 0 {
		return "+Inf"
	}
	return fmt.Sprintf("%dms", v)
}

var dashTemplate = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="{{.Refresh}}">
<title>{{.Service}} dashboard</title>
<style>
body { font-family: ui-monospace, monospace; margin: 1.5rem; background: #101418; color: #d8dee6; }
h1 { font-size: 1.1rem; } h2 { font-size: 0.95rem; margin-top: 1.4rem; }
table { border-collapse: collapse; }
td, th { padding: 0.15rem 0.8rem 0.15rem 0; text-align: left; font-size: 0.85rem; }
th { color: #8aa0b4; font-weight: normal; border-bottom: 1px solid #2a3440; }
.muted { color: #8aa0b4; }
.sparks { display: flex; flex-wrap: wrap; gap: 1.2rem; margin-top: 0.6rem; }
.spark { background: #161c22; padding: 0.5rem 0.7rem; border-radius: 4px; }
.spark .t { font-size: 0.75rem; color: #8aa0b4; }
.spark .v { font-size: 0.95rem; }
svg polyline { fill: none; stroke: #5fb3f9; stroke-width: 1.5; }
</style>
</head>
<body>
<h1>{{.Service}} <span class="muted">ops dashboard · generated {{.Generated}} · refreshes every {{.Refresh}}s</span></h1>
<table>
{{range .Status}}<tr><td class="muted">{{.Name}}</td><td>{{.Value}}</td></tr>
{{end}}</table>
<div class="sparks">
{{range .Sparks}}<div class="spark"><div class="t">{{.Title}}</div><div class="v">{{.Latest}}</div>
<svg width="{{.W}}" height="{{.H}}" viewBox="0 0 {{.W}} {{.H}}">{{if .Points}}<polyline points="{{.Points}}"/>{{end}}</svg></div>
{{end}}</div>
<h2>latency (power-of-two bucket bounds)</h2>
{{if .Latency}}<table>
{{range .Latency}}<tr><td class="muted">{{.Name}}</td><td>{{.Value}}</td></tr>
{{end}}</table>{{else}}<p class="muted">no requests yet</p>{{end}}
<h2>in-flight evaluations</h2>
{{if .Flights}}<table>
<tr><th>key</th><th>age ms</th><th>waiters</th><th>leader</th></tr>
{{range .Flights}}<tr><td>{{.Key}}</td><td>{{printf "%.1f" .AgeMS}}</td><td>{{.Waiters}}</td><td>{{.LeaderID}}</td></tr>
{{end}}</table>{{else}}<p class="muted">none</p>{{end}}
<h2>recent slow requests</h2>
{{if .Slow}}<table>
<tr><th>time</th><th>id</th><th>endpoint</th><th>status</th><th>ms</th></tr>
{{range .Slow}}<tr><td>{{.Time}}</td><td>{{.ID}}</td><td>{{.Endpoint}}</td><td>{{.Status}}</td><td>{{printf "%.1f" .DurMS}}</td></tr>
{{end}}</table>{{else}}<p class="muted">none</p>{{end}}
</body>
</html>
`))
