// Package obs is the observability substrate shared by the scheduler, the
// engines, and the serving path: dependency-free atomic counters, bounded
// histograms, and pprof-label helpers.
//
// Everything here is additive instrumentation: nothing in this package feeds
// back into scheduling or into the Work/Depth accounting of internal/pram, so
// the quantities EXPERIMENTS.md verifies are identical whether the layer is
// enabled or not (TestObsNeutrality proves it). The global Enabled switch
// exists for that proof and for zero-overhead runs; it defaults to on.
package obs

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
)

var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether the observability layer is collecting. One atomic
// load; callers on hot paths check it once per phase, not per element.
func Enabled() bool { return enabled.Load() }

// SetEnabled switches collection on or off and returns the previous setting.
// Counters keep their values while disabled; they just stop moving.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value: it moves both ways (e.g. the number
// of currently pinned snapshots). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a bounded histogram over int64 observations with fixed upper
// bounds chosen at construction — cumulative rendering (Prometheus "le"
// buckets) is derived at snapshot time. The zero value is not usable; call
// NewHistogram. All methods are safe for concurrent use.
type Histogram struct {
	bounds  []int64 // ascending inclusive upper bounds; implicit +Inf last
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// NewHistogram returns a histogram with the given ascending inclusive upper
// bounds plus an implicit +Inf overflow bucket.
func NewHistogram(bounds []int64) *Histogram {
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.buckets = make([]atomic.Int64, len(bounds)+1)
	return h
}

// ExpBounds returns n ascending bounds starting at start, each following
// bound multiplied by factor — the standard exponential bucket layout for
// latency histograms.
func ExpBounds(start int64, factor float64, n int) []int64 {
	out := make([]int64, n)
	v := float64(start)
	for i := range out {
		out[i] = int64(v)
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistSnapshot is a point-in-time copy of a Histogram. Counts[i] is the
// number of observations ≤ Bounds[i]; the final entry (with no bound) is the
// overflow bucket. Counts are per-bucket, not cumulative.
type HistSnapshot struct {
	Bounds []int64
	Counts []int64
	Count  int64
	Sum    int64
}

// Snapshot copies the histogram's current state. Concurrent Observe calls may
// or may not be included; the snapshot is internally consistent enough for
// monitoring (bucket totals may trail Count by in-flight observations).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) of the
// observed values: the bound of the bucket where the cumulative count crosses
// q·Count. Returns 0 with no observations; the overflow bucket reports the
// largest bound. This is the one quantile implementation in the tree — the
// stream, SLO, and dictserve views all delegate here.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			break
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the mean observed value (0 with no observations).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Do runs f under the given pprof labels (alternating key, value) when the
// layer is enabled, so CPU and goroutine profiles attribute the region to
// them; the labeled context is passed to f so it can be threaded further
// (e.g. into a scheduler context whose workers re-apply the labels). When
// disabled, f runs with gctx unchanged and no labels are touched. A nil gctx
// is treated as context.Background().
func Do(gctx context.Context, f func(context.Context), kv ...string) {
	if !Enabled() {
		f(gctx)
		return
	}
	if gctx == nil {
		gctx = context.Background()
	}
	pprof.Do(gctx, pprof.Labels(kv...), f)
}

// HasLabels reports whether ctx carries any pprof labels (false for nil).
func HasLabels(ctx context.Context) bool {
	has := false
	if ctx != nil {
		pprof.ForLabels(ctx, func(string, string) bool { has = true; return false })
	}
	return has
}

// levelStrings caches the small label values the cascade engines use, so
// per-level labeling does not allocate.
var levelStrings = func() [64]string {
	var s [64]string
	for i := range s {
		s[i] = strconv.Itoa(i)
	}
	return s
}()

// LevelString returns the canonical string for a cascade level, allocation-
// free for the levels that occur in practice (m < 2^63).
func LevelString(k int) string {
	if k >= 0 && k < len(levelStrings) {
		return levelStrings[k]
	}
	return strconv.Itoa(k)
}
