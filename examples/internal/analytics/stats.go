// Package analytics implements continuous analytics (§2.2.c.i.4):
// streaming statistics and anomaly detectors that identify which
// conditions are worth watching, plus the scoring machinery (precision,
// recall, false positives/negatives) the paper's keywords call out.
package analytics

import (
	"fmt"
	"math"
	"sort"
)

// Welford maintains running count/mean/variance in O(1) per observation
// using Welford's numerically stable recurrence.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// EWMA is an exponentially weighted moving average.
type EWMA struct {
	Alpha float64 // weight of the newest observation, in (0, 1]
	value float64
	init  bool
}

// Add incorporates one observation.
func (e *EWMA) Add(x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	e.value = e.Alpha*x + (1-e.Alpha)*e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether any observation has been added.
func (e *EWMA) Initialized() bool { return e.init }

// P2 estimates a single quantile online in O(1) space using the P²
// algorithm (Jain & Chlamtac 1985), the classic choice for streaming
// percentile tracking without storing the data.
type P2 struct {
	p     float64
	n     int64
	q     [5]float64 // marker heights
	pos   [5]float64 // marker positions (1-based)
	want  [5]float64 // desired positions
	dPos  [5]float64 // desired position increments
	first []float64  // first 5 observations
}

// NewP2 creates an estimator for quantile p in (0, 1).
func NewP2(p float64) (*P2, error) {
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("analytics: quantile %v out of (0,1)", p)
	}
	e := &P2{p: p}
	e.dPos = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e, nil
}

// Add incorporates one observation.
func (e *P2) Add(x float64) {
	e.n++
	if len(e.first) < 5 {
		e.first = append(e.first, x)
		if len(e.first) == 5 {
			sort.Float64s(e.first)
			for i := 0; i < 5; i++ {
				e.q[i] = e.first[i]
				e.pos[i] = float64(i + 1)
			}
			e.want = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
		}
		return
	}
	// Find cell k.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.want[i] += e.dPos[i]
	}
	// Adjust interior markers.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			// Parabolic interpolation; fall back to linear if it would
			// break monotonicity; skip the adjustment entirely if even
			// the linear form misbehaves (overflow on extreme inputs).
			qn := e.parabolic(i, sign)
			if !(e.q[i-1] < qn && qn < e.q[i+1]) {
				qn = e.linear(i, sign)
			}
			if e.q[i-1] <= qn && qn <= e.q[i+1] && !math.IsNaN(qn) {
				e.q[i] = qn
				e.pos[i] += sign
			}
		}
	}
}

func (e *P2) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

func (e *P2) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Quantile returns the current estimate. With fewer than 5 observations
// it returns the exact sample quantile.
func (e *P2) Quantile() float64 {
	if e.n == 0 {
		return 0
	}
	if len(e.first) < 5 {
		s := append([]float64(nil), e.first...)
		sort.Float64s(s)
		idx := int(e.p * float64(len(s)-1))
		return s[idx]
	}
	return e.q[2]
}

// N returns the observation count.
func (e *P2) N() int64 { return e.n }

// Histogram counts observations into fixed bucket boundaries.
type Histogram struct {
	bounds []float64 // ascending; bucket i is (bounds[i-1], bounds[i]]
	counts []int64   // len(bounds)+1; last is overflow
	total  int64
}

// NewHistogram creates a histogram with the given ascending bounds.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("analytics: histogram needs bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("analytics: histogram bounds not ascending at %d", i)
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}, nil
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i]++
	h.total++
}

// Total returns the observation count.
func (h *Histogram) Total() int64 { return h.total }

// Counts returns a copy of bucket counts (last bucket is overflow).
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Quantile returns the upper bound of the bucket containing quantile p
// (an upper estimate; ±one bucket of resolution).
func (h *Histogram) Quantile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}
