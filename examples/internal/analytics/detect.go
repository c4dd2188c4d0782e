package analytics

import "math"

// Detector flags anomalous observations in a stream. Feed returns
// whether x is anomalous and a detector-specific score (larger = more
// anomalous).
type Detector interface {
	Feed(x float64) (anomalous bool, score float64)
	Reset()
}

// ZScore flags observations more than Threshold standard deviations
// from the running mean of past (non-flagged, if Robust) observations.
type ZScore struct {
	// Threshold in standard deviations (typical: 3).
	Threshold float64
	// MinObservations before any flagging (warm-up).
	MinObservations int64
	// MinStd floors the standard deviation to avoid hair-trigger alarms
	// on near-constant baselines.
	MinStd float64
	// Robust excludes flagged observations from the baseline, so a
	// burst of anomalies does not teach the detector to accept them.
	Robust bool

	w Welford
}

// Feed implements Detector.
func (z *ZScore) Feed(x float64) (bool, float64) {
	anomalous := false
	score := 0.0
	if z.w.N() >= max64(z.MinObservations, 2) {
		std := z.w.Std()
		if std < z.MinStd {
			std = z.MinStd
		}
		if std > 0 {
			score = math.Abs(x-z.w.Mean()) / std
			anomalous = score > z.Threshold
		}
	}
	if !anomalous || !z.Robust {
		z.w.Add(x)
	}
	return anomalous, score
}

// Reset implements Detector.
func (z *ZScore) Reset() { z.w = Welford{} }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// CUSUM detects small persistent shifts of the mean using the
// cumulative-sum control chart: it accumulates deviations beyond a
// slack K and alarms when the sum exceeds H (both in standard
// deviations of the calibration window).
type CUSUM struct {
	// K is the slack per observation, H the alarm threshold, both in
	// calibrated standard deviations (typical: K=0.5, H=5).
	K, H float64
	// Calibration is how many leading observations estimate mean/std.
	Calibration int64

	w          Welford
	hi, lo     float64
	mean, std  float64
	calibrated bool
}

// Feed implements Detector.
func (c *CUSUM) Feed(x float64) (bool, float64) {
	if !c.calibrated {
		c.w.Add(x)
		if c.w.N() >= max64(c.Calibration, 2) {
			c.mean = c.w.Mean()
			c.std = c.w.Std()
			if c.std == 0 {
				c.std = 1e-9
			}
			c.calibrated = true
		}
		return false, 0
	}
	z := (x - c.mean) / c.std
	c.hi = math.Max(0, c.hi+z-c.K)
	c.lo = math.Max(0, c.lo-z-c.K)
	score := math.Max(c.hi, c.lo)
	if score > c.H {
		// Alarm and restart accumulation (standard practice).
		c.hi, c.lo = 0, 0
		return true, score
	}
	return false, score
}

// Reset implements Detector.
func (c *CUSUM) Reset() {
	*c = CUSUM{K: c.K, H: c.H, Calibration: c.Calibration}
}

// Confusion tallies detector performance against ground truth.
type Confusion struct {
	TP, FP, FN, TN int
}

// Add tallies one (predicted, actual) pair.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// FalsePositiveRate returns FP/(FP+TN), 0 when undefined.
func (c Confusion) FalsePositiveRate() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// Score runs a detector over a labelled series and tallies the
// confusion matrix.
func Score(d Detector, xs []float64, labels []bool) Confusion {
	var c Confusion
	for i, x := range xs {
		flagged, _ := d.Feed(x)
		actual := i < len(labels) && labels[i]
		c.Add(flagged, actual)
	}
	return c
}
