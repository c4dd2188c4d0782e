// Package metrics provides the lightweight counters and latency
// histograms used by the engine and the experiment harness (performance
// and scalability are "operational characteristics" the paper calls out
// at every stage).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	n atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is an instantaneous level (queue depth, backlog) that can
// move in both directions. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// LatencyHistogram records durations into exponential buckets
// (1µs·2^i), supporting approximate percentiles without storing
// samples. Safe for concurrent use; the zero value is ready. Observe
// takes no lock and allocates nothing — it sits on the per-push path —
// so a reader racing observers may see a count one ahead of a bucket;
// every accessor tolerates that.
type LatencyHistogram struct {
	buckets [latencyBuckets]atomic.Uint64 // 1µs .. ~1.1e6s
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // smallest observation + 1; 0 = none yet
	max     atomic.Int64
}

const latencyBuckets = 40

func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	// bits.Len64 is floor(log2(us)) + 1, exactly.
	return min(bits.Len64(uint64(us)), latencyBuckets-1)
}

// Observe records one duration (negative ones count as zero).
func (h *LatencyHistogram) Observe(d time.Duration) {
	d = max(d, 0)
	h.buckets[bucketFor(d)].Add(1)
	h.sum.Add(int64(d))
	for cur := h.min.Load(); cur == 0 || int64(d) < cur-1; cur = h.min.Load() {
		if h.min.CompareAndSwap(cur, int64(d)+1) {
			break
		}
	}
	for cur := h.max.Load(); int64(d) > cur; cur = h.max.Load() {
		if h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *LatencyHistogram) Count() uint64 { return h.count.Load() }

// Mean returns the average duration.
func (h *LatencyHistogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load()) / time.Duration(n)
}

// Min returns the smallest observation.
func (h *LatencyHistogram) Min() time.Duration {
	return time.Duration(max(h.min.Load()-1, 0))
}

// Max returns the largest observation.
func (h *LatencyHistogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Percentile returns an upper bound for the p-th percentile (bucket
// resolution: a factor of 2).
func (h *LatencyHistogram) Percentile(p float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i == 0 {
				return time.Microsecond
			}
			return time.Duration(1<<uint(i)) * time.Microsecond
		}
	}
	return h.Max()
}

// String summarizes the distribution.
func (h *LatencyHistogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}

// Registry is a named collection of counters and histograms, used by
// the engine to expose operational statistics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*LatencyHistogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*LatencyHistogram),
	}
}

// Counter returns (creating if needed) a named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) a named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) a named latency histogram.
func (r *Registry) Histogram(name string) *LatencyHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &LatencyHistogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot renders all metrics as sorted "name value" lines.
func (r *Registry) Snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for name, c := range r.counters {
		out = append(out, fmt.Sprintf("%s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		out = append(out, fmt.Sprintf("%s %d", name, g.Value()))
	}
	for name, h := range r.hists {
		out = append(out, fmt.Sprintf("%s %s", name, h.String()))
	}
	sort.Strings(out)
	return out
}
