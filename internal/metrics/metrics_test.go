package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("value = %d", c.Value())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8005 {
		t.Errorf("concurrent value = %d", c.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h LatencyHistogram
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Error("empty histogram not zero")
	}
	durations := []time.Duration{
		time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond,
	}
	for _, d := range durations {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Min() != time.Microsecond || h.Max() != 10*time.Millisecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	// p50 upper bound: within 2x of the true median (bucket resolution).
	p50 := h.Percentile(50)
	if p50 < 100*time.Microsecond || p50 > 200*time.Microsecond {
		t.Errorf("p50 = %v", p50)
	}
	p100 := h.Percentile(100)
	if p100 < 10*time.Millisecond {
		t.Errorf("p100 = %v", p100)
	}
	if !strings.Contains(h.String(), "n=5") {
		t.Errorf("String() = %q", h.String())
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h LatencyHistogram
	h.Observe(0)
	h.Observe(500 * time.Hour)
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Percentile(1) > time.Microsecond {
		t.Errorf("tiny percentile = %v", h.Percentile(1))
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("events.in").Add(10)
	r.Counter("events.in").Inc() // same counter
	r.Histogram("lat").Observe(time.Millisecond)
	if r.Counter("events.in").Value() != 11 {
		t.Errorf("counter = %d", r.Counter("events.in").Value())
	}
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	if !strings.HasPrefix(snap[0], "events.in 11") {
		t.Errorf("snapshot[0] = %q", snap[0])
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(3)
	g.Add(-5)
	if g.Value() != 5 {
		t.Errorf("value = %d", g.Value())
	}
	if r.Gauge("depth") != g {
		t.Error("gauge not interned by name")
	}
	found := false
	for _, line := range r.Snapshot() {
		if line == "depth 5" {
			found = true
		}
	}
	if !found {
		t.Errorf("snapshot = %v", r.Snapshot())
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Errorf("value = %d after balanced adds", g.Value())
	}
}

// TestHistogramBuckets: bits.Len64 puts every duration in the bucket
// the former math.Log2 formula named, at each power of two, just
// beside it and at the clamp.
func TestHistogramBuckets(t *testing.T) {
	old := func(d time.Duration) int {
		us := d.Microseconds()
		if us < 1 {
			return 0
		}
		b := int(math.Log2(float64(us))) + 1
		if b >= 40 {
			b = 39
		}
		return b
	}
	durs := []time.Duration{-time.Second, 0, 999 * time.Nanosecond, 3 * time.Microsecond, 1000 * time.Microsecond}
	for k := 0; k < 43; k++ {
		us := time.Duration(1) << k * time.Microsecond
		durs = append(durs, us-time.Microsecond, us, us+time.Microsecond)
	}
	for _, d := range durs {
		if got, want := bucketFor(d), old(d); got != want {
			t.Errorf("bucketFor(%v) = %d, the Log2 formula says %d", d, got, want)
		}
	}
}

// TestHistogramConcurrentObserve: Observe takes no lock, so the totals
// must still add up when several goroutines record at once.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h LatencyHistogram
	var wg sync.WaitGroup
	const workers, each = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				h.Observe(time.Duration(w*each+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	const n = workers * each
	if h.Count() != n || h.Min() != time.Microsecond || h.Max() != n*time.Microsecond {
		t.Errorf("n=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
	if want := time.Duration(n+1) * time.Microsecond / 2; h.Mean() != want {
		t.Errorf("mean = %v, want %v", h.Mean(), want)
	}
	if p := h.Percentile(100); p < h.Max() {
		t.Errorf("p100 = %v below max %v", p, h.Max())
	}
}

func TestAllocsHistogramObserve(t *testing.T) {
	var h LatencyHistogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(137 * time.Microsecond) }); allocs != 0 {
		t.Errorf("Observe allocates %v, want 0", allocs)
	}
}
