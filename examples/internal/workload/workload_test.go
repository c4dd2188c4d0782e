package workload

import (
	"math"
	"testing"

	"eventdb/internal/val"
)

func TestTradesDeterministic(t *testing.T) {
	g1 := NewTrades(42, 10, 100)
	g2 := NewTrades(42, 10, 100)
	for i := 0; i < 100; i++ {
		e1, e2 := g1.Next(), g2.Next()
		p1, _ := e1.Get("price")
		p2, _ := e2.Get("price")
		s1, _ := e1.Get("sym")
		s2, _ := e2.Get("sym")
		if !val.Equal(p1, p2) || !val.Equal(s1, s2) {
			t.Fatalf("step %d: generators diverged", i)
		}
	}
	if len(g1.Symbols()) != 10 {
		t.Errorf("symbols = %d", len(g1.Symbols()))
	}
}

func TestTradesShape(t *testing.T) {
	g := NewTrades(1, 5, 100)
	prev := map[string]bool{}
	for i := 0; i < 1000; i++ {
		ev := g.Next()
		if ev.Type != "trade" {
			t.Fatalf("type = %q", ev.Type)
		}
		p, _ := ev.Get("price")
		f, ok := p.AsFloat()
		if !ok || f <= 0 {
			t.Fatalf("price = %v", p)
		}
		s, _ := ev.Get("sym")
		sym, _ := s.AsString()
		prev[sym] = true
	}
	if len(prev) != 5 {
		t.Errorf("symbols seen = %d", len(prev))
	}
}

func TestMetersAnomalyRate(t *testing.T) {
	g := NewMeters(7, 20)
	g.AnomalyRate = 0.05
	anomalies, total := 0, 5000
	var anomSum, normSum float64
	var normN int
	for i := 0; i < total; i++ {
		r := g.Next()
		if r.Anomaly {
			anomalies++
			anomSum += r.Value
		} else {
			normSum += r.Value
			normN++
		}
		if r.Event.Type != "meter.reading" {
			t.Fatalf("type = %q", r.Event.Type)
		}
	}
	rate := float64(anomalies) / float64(total)
	if rate < 0.02 || rate > 0.10 {
		t.Errorf("anomaly rate = %v, want ≈0.05", rate)
	}
	// Anomalies are elevated on average (they multiply the base load).
	if anomalies > 0 && anomSum/float64(anomalies) < 1.5*normSum/float64(normN) {
		t.Errorf("anomalous mean %v not elevated over normal mean %v",
			anomSum/float64(anomalies), normSum/float64(normN))
	}
	_ = math.Pi // keep math import for the seasonal test below
}

func TestMetersSeasonalShape(t *testing.T) {
	g := NewMeters(3, 1)
	g.AnomalyRate = 0
	var night, evening float64
	var nN, eN int
	for i := 0; i < 4*24*30; i++ { // 30 days of 15-minute readings
		r := g.Next()
		h := r.Event.Time.Hour()
		switch {
		case h >= 2 && h < 4:
			night += r.Value
			nN++
		case h >= 17 && h < 19:
			evening += r.Value
			eN++
		}
	}
	if evening/float64(eN) <= night/float64(nN) {
		t.Errorf("no seasonal shape: evening %v vs night %v",
			evening/float64(eN), night/float64(nN))
	}
}

func TestSensorsBursts(t *testing.T) {
	g := NewSensors(5, 8)
	g.BurstRate = 0.01
	burstEvents := 0
	siteLevels := map[string][]float64{}
	for i := 0; i < 5000; i++ {
		ev, inBurst := g.Next()
		if inBurst {
			burstEvents++
			lv, _ := ev.Get("level")
			f, _ := lv.AsFloat()
			if f < 8 {
				t.Errorf("burst level %v below hazard threshold", f)
			}
		}
		s, _ := ev.Get("site")
		site, _ := s.AsString()
		lv, _ := ev.Get("level")
		f, _ := lv.AsFloat()
		siteLevels[site] = append(siteLevels[site], f)
	}
	if burstEvents == 0 {
		t.Error("no bursts generated")
	}
	if len(siteLevels) != 8 {
		t.Errorf("sites seen = %d", len(siteLevels))
	}
	// Time must be monotonically nondecreasing.
	g2 := NewSensors(5, 3)
	prev, _ := g2.Next()
	for i := 0; i < 100; i++ {
		ev, _ := g2.Next()
		if ev.Time.Before(prev.Time) {
			t.Fatal("time went backwards")
		}
		prev = ev
	}
}
