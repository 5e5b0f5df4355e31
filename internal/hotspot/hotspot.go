// Package hotspot is an online workload profiler: it answers *why*
// contention arises, where the rest of the observability stack answers
// *where time goes*. A sampling Space-Saving sketch tracks the hottest
// read and written keys, a per-stripe heatmap attributes lock waits,
// wound-wait victims, and lock hold time to the stripes that suffered
// them, a conflict sketch pairs abort causes with the keys that caused
// them, histograms track version-chain depth and snapshot age at GC
// passes, and bound taps expose epoch-lane occupancy and the lane
// currently stalling the watermark.
//
// Everything is nil-safe: a nil *Profiler reduces every hot-path call
// to one pointer test, preserving the seed allocation profile. Enabled,
// the touch path is an atomic counter plus (on the 1-in-SampleEvery
// sampled touches) a mutex TryLock — a touch that loses the race is
// counted as shed instead of blocking, so the profiler never adds lock
// waits of its own to the paths it is measuring.
package hotspot

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/metrics"
)

// Defaults.
const (
	DefaultTopK        = 32
	DefaultSampleEvery = 16
)

// Options configures a Profiler.
type Options struct {
	// TopK is the sketch capacity and report size (default 32).
	TopK int
	// SampleEvery samples one in N key touches (default 16; 1 = every
	// touch, for deterministic tests).
	SampleEvery int
}

// HotKey is one heavy-hitter entry. Count overestimates the true
// frequency by at most Err (Space-Saving guarantee).
type HotKey struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// HotPair is one (abort cause, key) conflict entry.
type HotPair struct {
	Cause string `json:"cause"`
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// StripeHeat is the contention attributed to one lock stripe. Only
// stripes with any activity appear in a Report.
type StripeHeat struct {
	Stripe    int   `json:"stripe"`
	Waits     int64 `json:"waits"`
	WaitNanos int64 `json:"wait_ns"`
	Wounds    int64 `json:"wounds"`
	HoldNanos int64 `json:"hold_ns"`
}

// Report is an immutable snapshot of the profiler, embedded in
// obs.Snapshot, flight bundles (since schema mvdb-flight/v3), and the
// /debug/mvdb/hotspot endpoint.
type Report struct {
	Enabled     bool   `json:"enabled"`
	TopK        int    `json:"top_k"`
	SampleEvery int    `json:"sample_every"`
	Touches     uint64 `json:"touches"` // touch calls observed (sampled or not)
	Sampled     uint64 `json:"sampled"` // touches that updated a sketch
	Shed        uint64 `json:"shed"`    // sampled touches dropped to avoid blocking

	HotReads  []HotKey  `json:"hot_reads,omitempty"`
	HotWrites []HotKey  `json:"hot_writes,omitempty"`
	Conflicts []HotPair `json:"conflicts,omitempty"`

	TotalStripes int          `json:"total_stripes,omitempty"`
	Stripes      []StripeHeat `json:"stripes,omitempty"`

	ChainDepth  metrics.Summary `json:"chain_depth"`  // versions per key at GC passes
	SnapshotAge metrics.Summary `json:"snapshot_age"` // vtnc - GC watermark, in transactions

	// Epoch-lane occupancy (VisibilityEpoch only): per-lane completion
	// frontiers and the lane currently holding the watermark back.
	Lanes     []uint64 `json:"lanes,omitempty"`
	StallLane int      `json:"stall_lane"` // -1 when unknown
	Epoch     uint64   `json:"epoch,omitempty"`
	Watermark uint64   `json:"watermark,omitempty"`
}

type stripeCounters struct {
	waits     atomic.Int64
	waitNanos atomic.Int64
	wounds    atomic.Int64
	holdNanos atomic.Int64
}

// Profiler collects the workload profile. All methods are safe on a nil
// receiver and for concurrent use.
type Profiler struct {
	topK        int
	sampleEvery uint64

	touches atomic.Uint64
	sampled atomic.Uint64
	shed    atomic.Uint64

	readMu  sync.Mutex
	reads   *sketch
	writeMu sync.Mutex
	writes  *sketch
	confMu  sync.Mutex
	confs   *sketch // keyed cause+"\x00"+key

	stripeMu sync.Mutex // guards replacement of the slice, not its counters
	stripes  []*stripeCounters

	chainDepth *metrics.Histogram
	snapAge    *metrics.Histogram

	vcMu      sync.Mutex
	lanes     func() []uint64
	epochFn   func() uint64
	watermark func() uint64
}

// New creates a Profiler. Sketch capacity is doubled over TopK so the
// report's tail entries have already shaken out their eviction noise.
func New(opts Options) *Profiler {
	if opts.TopK <= 0 {
		opts.TopK = DefaultTopK
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = DefaultSampleEvery
	}
	return &Profiler{
		topK:        opts.TopK,
		sampleEvery: uint64(opts.SampleEvery),
		reads:       newSketch(opts.TopK * 2),
		writes:      newSketch(opts.TopK * 2),
		confs:       newSketch(opts.TopK * 2),
		chainDepth:  metrics.NewHistogram(),
		snapAge:     metrics.NewHistogram(),
	}
}

// BindStripes sizes the stripe heatmap. Called once by the engine at
// construction, before traffic.
func (p *Profiler) BindStripes(n int) {
	if p == nil || n <= 0 {
		return
	}
	s := make([]*stripeCounters, n)
	for i := range s {
		s[i] = &stripeCounters{}
	}
	p.stripeMu.Lock()
	p.stripes = s
	p.stripeMu.Unlock()
}

// BindVC installs the visibility-module taps (epoch lane frontiers,
// epoch number, watermark). Any tap may be nil.
func (p *Profiler) BindVC(lanes func() []uint64, epoch, watermark func() uint64) {
	if p == nil {
		return
	}
	p.vcMu.Lock()
	p.lanes, p.epochFn, p.watermark = lanes, epoch, watermark
	p.vcMu.Unlock()
}

// TouchRead records a key read on the hot path.
func (p *Profiler) TouchRead(key string) {
	if p == nil {
		return
	}
	p.touch(key, &p.readMu, p.reads)
}

// TouchWrite records a key write on the hot path.
func (p *Profiler) TouchWrite(key string) {
	if p == nil {
		return
	}
	p.touch(key, &p.writeMu, p.writes)
}

func (p *Profiler) touch(key string, mu *sync.Mutex, s *sketch) {
	n := p.touches.Add(1)
	if n%p.sampleEvery != 0 {
		return
	}
	if !mu.TryLock() {
		p.shed.Add(1)
		return
	}
	s.Touch(key, 1)
	mu.Unlock()
	p.sampled.Add(1)
}

// RecordConflict records an abort attributed to (cause, key). Abort
// paths are already slow, so this takes the lock unconditionally and is
// not sampled — conflicts are rare and each one matters.
func (p *Profiler) RecordConflict(cause, key string) {
	if p == nil {
		return
	}
	p.confMu.Lock()
	p.confs.Touch(cause+"\x00"+key, 1)
	p.confMu.Unlock()
}

// RecordStripeWait attributes one lock wait to a stripe.
func (p *Profiler) RecordStripeWait(stripe int, wait time.Duration) {
	if p == nil {
		return
	}
	if c := p.stripe(stripe); c != nil {
		c.waits.Add(1)
		c.waitNanos.Add(wait.Nanoseconds())
	}
}

// RecordWound attributes one wound-wait victim to a stripe.
func (p *Profiler) RecordWound(stripe int) {
	if p == nil {
		return
	}
	if c := p.stripe(stripe); c != nil {
		c.wounds.Add(1)
	}
}

// RecordHold attributes lock hold time to a stripe (2PL release path).
func (p *Profiler) RecordHold(stripe int, held time.Duration) {
	if p == nil {
		return
	}
	if c := p.stripe(stripe); c != nil {
		c.holdNanos.Add(held.Nanoseconds())
	}
}

func (p *Profiler) stripe(i int) *stripeCounters {
	p.stripeMu.Lock()
	s := p.stripes
	p.stripeMu.Unlock()
	if i < 0 || i >= len(s) {
		return nil
	}
	return s[i]
}

// RecordChainDepth records one key's version-chain depth (GC observer).
func (p *Profiler) RecordChainDepth(depth int) {
	if p == nil {
		return
	}
	p.chainDepth.Record(int64(depth))
}

// RecordSnapshotAge records the distance, in transactions, between the
// visibility horizon and the GC watermark at a pass — how far behind
// the oldest protected snapshot trails the present.
func (p *Profiler) RecordSnapshotAge(age uint64) {
	if p == nil {
		return
	}
	p.snapAge.Record(int64(age))
}

// Report snapshots the profiler. Nil-safe: a nil profiler reports nil,
// which callers embed as an absent section.
func (p *Profiler) Report() *Report {
	if p == nil {
		return nil
	}
	r := &Report{
		Enabled:     true,
		TopK:        p.topK,
		SampleEvery: int(p.sampleEvery),
		Touches:     p.touches.Load(),
		Sampled:     p.sampled.Load(),
		Shed:        p.shed.Load(),
		ChainDepth:  p.chainDepth.Summarize(),
		SnapshotAge: p.snapAge.Summarize(),
		StallLane:   -1,
	}
	p.readMu.Lock()
	r.HotReads = p.reads.Top(p.topK)
	p.readMu.Unlock()
	p.writeMu.Lock()
	r.HotWrites = p.writes.Top(p.topK)
	p.writeMu.Unlock()
	p.confMu.Lock()
	for _, hk := range p.confs.Top(p.topK) {
		cause, key := hk.Key, ""
		for i := 0; i < len(hk.Key); i++ {
			if hk.Key[i] == 0 {
				cause, key = hk.Key[:i], hk.Key[i+1:]
				break
			}
		}
		r.Conflicts = append(r.Conflicts, HotPair{Cause: cause, Key: key, Count: hk.Count, Err: hk.Err})
	}
	p.confMu.Unlock()

	p.stripeMu.Lock()
	stripes := p.stripes
	p.stripeMu.Unlock()
	r.TotalStripes = len(stripes)
	for i, c := range stripes {
		h := StripeHeat{
			Stripe:    i,
			Waits:     c.waits.Load(),
			WaitNanos: c.waitNanos.Load(),
			Wounds:    c.wounds.Load(),
			HoldNanos: c.holdNanos.Load(),
		}
		if h.Waits != 0 || h.Wounds != 0 || h.HoldNanos != 0 {
			r.Stripes = append(r.Stripes, h)
		}
	}

	p.vcMu.Lock()
	lanes, epochFn, wmFn := p.lanes, p.epochFn, p.watermark
	p.vcMu.Unlock()
	if lanes != nil {
		r.Lanes = lanes()
		for i, f := range r.Lanes {
			if r.StallLane < 0 || f < r.Lanes[r.StallLane] {
				r.StallLane = i
			}
		}
	}
	if epochFn != nil {
		r.Epoch = epochFn()
	}
	if wmFn != nil {
		r.Watermark = wmFn()
	}
	return r
}

// HTTPHandler serves the current Report as JSON
// (the /debug/mvdb/hotspot endpoint).
func (p *Profiler) HTTPHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p.Report())
	})
}
