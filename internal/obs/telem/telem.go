// Package telem is the telemetry layer behind qschedd: an embedded,
// append-only time-series store for periodic obs.Registry snapshots
// (persistent via Open, or the newest N samples in memory via
// NewMemory), plus a flight recorder that turns the recent-request ring
// into self-contained postmortem bundles.
//
// Segments and bundles go to disk through internal/cas's record code:
// every sealed segment is a cas frame (versioned, CRC-checksummed)
// written with cas.WriteFileAtomic, leftover temp files are swept at
// Open, and a segment failing validation — a crash mid-write, a bad
// disk, a truncation — is quarantined and skipped, never a wrong answer
// and never a crash. Samples buffer in memory and
// seal every Options.SealSamples appends (Close seals the tail), so a
// kill -9 loses at most one unsealed buffer, and everything sealed
// before it reads back bit-identically after reopen.
//
// Retention is two-tier under one byte budget: segments older than
// Options.Retention are dropped outright; past Options.MaxBytes the
// oldest segments are first rewritten at a coarser step
// (step-aligned downsampling, see Store.maintainLocked) and only then
// dropped. Downsampling level n keeps the last sample in each
// epoch-aligned Step<<n window — counters are cumulative, so the
// window's endpoint preserves exact rates across the gap.
package telem

import (
	"time"

	"github.com/scaffold-go/multisimd/internal/obs"
)

// Options configures a Store. Only Dir is required.
type Options struct {
	// Dir is the telemetry root; created if missing. Segments live
	// under Dir/segments, quarantined files under Dir/quarantine, and
	// postmortem bundles under Dir/postmortem.
	Dir string
	// Retention bounds how long sealed segments are kept (enforced at
	// seal time and at Open). Default 24h. Negative disables time-based
	// retention.
	Retention time.Duration
	// MaxBytes bounds sealed-segment bytes on disk; past it the oldest
	// segments are downsampled, then dropped. 0 = unbounded.
	MaxBytes int64
	// Step is the expected sample cadence, anchoring the downsampling
	// grid (level n buckets are Step<<n wide, epoch-aligned). Default
	// 2s, matching the server's sampler.
	Step time.Duration
	// SealSamples is how many samples buffer in memory before sealing
	// into an immutable segment (default 64: ~2 minutes at the default
	// cadence, bounding what a crash can lose).
	SealSamples int
	// Now injects the clock for retention decisions (tests); default
	// time.Now.
	Now func() time.Time
}

func (o Options) retention() time.Duration {
	if o.Retention == 0 {
		return 24 * time.Hour
	}
	return o.Retention
}

func (o Options) step() time.Duration {
	if o.Step <= 0 {
		return 2 * time.Second
	}
	return o.Step
}

func (o Options) sealSamples() int {
	if o.SealSamples <= 0 {
		return 64
	}
	return o.SealSamples
}

func (o Options) now() time.Time {
	if o.Now != nil {
		return o.Now()
	}
	return time.Now()
}

// Flatten spreads a registry snapshot into the flat series the store
// persists: counters and gauges keep their names, histograms expand to
// name.count/.sum/.p50/.p95/.p99 — the same derived quantiles the
// Prometheus endpoint exports, so scraped and persisted views agree.
func Flatten(s obs.Snapshot) map[string]float64 {
	m := make(map[string]float64, len(s.Counters)+len(s.Gauges)+5*len(s.Histograms))
	for k, v := range s.Counters {
		m[k] = float64(v)
	}
	for k, v := range s.Gauges {
		m[k] = float64(v)
	}
	for k, h := range s.Histograms {
		m[k+".count"] = float64(h.Count)
		m[k+".sum"] = float64(h.Sum)
		m[k+".p50"] = float64(h.P50)
		m[k+".p95"] = float64(h.P95)
		m[k+".p99"] = float64(h.P99)
	}
	return m
}
