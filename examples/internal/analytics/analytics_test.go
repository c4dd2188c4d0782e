package analytics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w Welford
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		xs = append(xs, x)
		w.Add(x)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs))
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Errorf("mean = %v, want %v", w.Mean(), mean)
	}
	if math.Abs(w.Var()-variance) > 1e-6 {
		t.Errorf("var = %v, want %v", w.Var(), variance)
	}
	if w.N() != 1000 {
		t.Errorf("n = %d", w.N())
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Error("empty Welford not zero")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Var() != 0 {
		t.Error("single observation wrong")
	}
}

func TestEWMA(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	if e.Initialized() {
		t.Error("initialized before Add")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Errorf("first value = %v", e.Value())
	}
	e.Add(20)
	if e.Value() != 15 {
		t.Errorf("after 20: %v", e.Value())
	}
	e.Add(15)
	if e.Value() != 15 {
		t.Errorf("after 15: %v", e.Value())
	}
}

func TestP2AgainstExact(t *testing.T) {
	for _, p := range []float64{0.5, 0.9, 0.99} {
		rng := rand.New(rand.NewSource(42))
		est, err := NewP2(p)
		if err != nil {
			t.Fatal(err)
		}
		var xs []float64
		for i := 0; i < 20000; i++ {
			x := rng.NormFloat64()*10 + 100
			xs = append(xs, x)
			est.Add(x)
		}
		sort.Float64s(xs)
		exact := xs[int(p*float64(len(xs)))]
		got := est.Quantile()
		// P² should land within a small relative error on smooth
		// distributions.
		if math.Abs(got-exact)/math.Abs(exact) > 0.02 {
			t.Errorf("p=%v: estimate %v vs exact %v", p, got, exact)
		}
	}
}

func TestP2SmallSamples(t *testing.T) {
	est, _ := NewP2(0.5)
	if est.Quantile() != 0 {
		t.Error("empty quantile should be 0")
	}
	est.Add(3)
	est.Add(1)
	est.Add(2)
	q := est.Quantile()
	if q != 2 {
		t.Errorf("median of {1,2,3} = %v", q)
	}
	if est.N() != 3 {
		t.Errorf("n = %d", est.N())
	}
	if _, err := NewP2(0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := NewP2(1); err == nil {
		t.Error("p=1 accepted")
	}
}

func TestP2MonotonicQuick(t *testing.T) {
	// Markers must remain ordered whatever the input.
	f := func(raw []float64) bool {
		est, _ := NewP2(0.9)
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			est.Add(x)
		}
		if est.n >= 5 {
			for i := 1; i < 5; i++ {
				if est.q[i] < est.q[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{5, 10, 15, 25, 35, 100} {
		h.Add(x)
	}
	counts := h.Counts()
	// Buckets: <=10, <=20, <=30, overflow.
	want := []int64{2, 1, 1, 2}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
	if h.Total() != 6 {
		t.Errorf("total = %d", h.Total())
	}
	if q := h.Quantile(0.5); q != 20 {
		t.Errorf("p50 = %v", q)
	}
	if q := h.Quantile(0.99); !math.IsInf(q, 1) {
		t.Errorf("p99 = %v, want +Inf (overflow)", q)
	}
	if _, err := NewHistogram(nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Error("descending bounds accepted")
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile")
	}
}

func TestZScoreDetector(t *testing.T) {
	d := &ZScore{Threshold: 3, MinObservations: 20}
	rng := rand.New(rand.NewSource(9))
	var flagged int
	for i := 0; i < 500; i++ {
		x := rng.NormFloat64()
		if f, _ := d.Feed(x); f {
			flagged++
		}
	}
	// ~0.3% of N(0,1) exceeds 3σ; allow generous slack.
	if flagged > 15 {
		t.Errorf("flagged %d of 500 normal observations", flagged)
	}
	// A gross outlier flags.
	if f, score := d.Feed(100); !f || score < 10 {
		t.Errorf("outlier not flagged: %v %v", f, score)
	}
	d.Reset()
	if f, _ := d.Feed(100); f {
		t.Error("flagging right after reset (no warm-up)")
	}
}

func TestZScoreRobustBaseline(t *testing.T) {
	// Robust: a burst of anomalies must not shift the baseline.
	mk := func(robust bool) *ZScore {
		d := &ZScore{Threshold: 3, MinObservations: 10, Robust: robust}
		for i := 0; i < 100; i++ {
			d.Feed(10 + 0.1*math.Sin(float64(i)))
		}
		return d
	}
	rob, naive := mk(true), mk(false)
	for i := 0; i < 50; i++ {
		rob.Feed(100)
		naive.Feed(100)
	}
	// After the burst, a mid-level value: the robust baseline still
	// flags it; the contaminated baseline may not.
	fR, _ := rob.Feed(50)
	if !fR {
		t.Error("robust detector lost its baseline")
	}
}

func TestZScoreMinStd(t *testing.T) {
	d := &ZScore{Threshold: 3, MinObservations: 5, MinStd: 1}
	for i := 0; i < 50; i++ {
		d.Feed(10) // zero variance
	}
	// Without MinStd this tiny wiggle would divide by ~0 and flag.
	if f, _ := d.Feed(10.5); f {
		t.Error("MinStd not applied")
	}
	if f, _ := d.Feed(20); !f {
		t.Error("real jump not flagged")
	}
}

func TestCUSUMDetectsSmallShift(t *testing.T) {
	d := &CUSUM{K: 0.5, H: 5, Calibration: 100}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		d.Feed(rng.NormFloat64())
	}
	// A persistent +1.5σ shift: z-score at 3σ would rarely flag a
	// single point, but CUSUM accumulates.
	alarmed := false
	for i := 0; i < 30 && !alarmed; i++ {
		alarmed, _ = d.Feed(rng.NormFloat64() + 1.5)
	}
	if !alarmed {
		t.Error("CUSUM missed persistent small shift")
	}
	d.Reset()
	if a, s := d.Feed(100); a || s != 0 {
		t.Error("reset did not clear calibration")
	}
}

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, true)  // FN
	c.Add(false, false) // TN
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.Precision() != 0.5 || c.Recall() != 0.5 || c.F1() != 0.5 {
		t.Errorf("p/r/f1 = %v/%v/%v", c.Precision(), c.Recall(), c.F1())
	}
	if c.FalsePositiveRate() != 0.5 {
		t.Errorf("fpr = %v", c.FalsePositiveRate())
	}
	var empty Confusion
	if empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 || empty.FalsePositiveRate() != 0 {
		t.Error("empty confusion not zero")
	}
}

func TestScoreHarness(t *testing.T) {
	xs := make([]float64, 200)
	labels := make([]bool, 200)
	rng := rand.New(rand.NewSource(3))
	for i := range xs {
		xs[i] = rng.NormFloat64()
		if i > 100 && i%25 == 0 {
			xs[i] = 50
			labels[i] = true
		}
	}
	c := Score(&ZScore{Threshold: 4, MinObservations: 20, Robust: true}, xs, labels)
	if c.TP == 0 {
		t.Error("no true positives on blatant anomalies")
	}
	if c.Recall() < 0.9 {
		t.Errorf("recall = %v", c.Recall())
	}
}
