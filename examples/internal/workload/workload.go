// Package workload generates the synthetic event streams used by the
// examples and the experiment harness. The paper's evaluation relies on
// production feeds (market data, utility meters, hazmat RFID, sensor
// grids) that a reproduction cannot obtain; these generators reproduce
// the statistical shape each use case needs — trending prices, seasonal
// loads with injected anomalies, bursty sensor traffic — deterministically
// from a seed, so experiments are repeatable.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"eventdb/internal/event"
)

// Trades generates a random-walk market feed (the financial-services
// use case).
type Trades struct {
	rng     *rand.Rand
	symbols []string
	prices  []float64
	t       time.Time
	step    time.Duration
}

// NewTrades creates a generator over nSymbols starting at basePrice.
func NewTrades(seed int64, nSymbols int, basePrice float64) *Trades {
	rng := rand.New(rand.NewSource(seed))
	g := &Trades{
		rng:  rng,
		t:    time.Date(2026, 6, 10, 9, 30, 0, 0, time.UTC),
		step: 100 * time.Millisecond,
	}
	for i := 0; i < nSymbols; i++ {
		g.symbols = append(g.symbols, fmt.Sprintf("SYM%03d", i))
		g.prices = append(g.prices, basePrice*(0.5+rng.Float64()))
	}
	return g
}

// Next returns the next trade event.
func (g *Trades) Next() *event.Event {
	i := g.rng.Intn(len(g.symbols))
	g.prices[i] *= 1 + g.rng.NormFloat64()*0.002
	if g.prices[i] < 0.01 {
		g.prices[i] = 0.01
	}
	g.t = g.t.Add(g.step)
	ev := event.New("trade", map[string]any{
		"sym":   g.symbols[i],
		"price": math.Round(g.prices[i]*100) / 100,
		"qty":   int64(1+g.rng.Intn(10)) * 100,
		"venue": []string{"NYSE", "NASDAQ", "ARCA"}[g.rng.Intn(3)],
	})
	ev.Time = g.t
	ev.Source = "feed/market"
	return ev
}

// Symbols returns the generated symbol universe.
func (g *Trades) Symbols() []string { return g.symbols }

// MeterReading is one generated utility observation with its ground
// truth label.
type MeterReading struct {
	Event   *event.Event
	Value   float64
	Anomaly bool
}

// Meters generates seasonal utility load with injected anomalies (the
// utilities use case): a daily sine profile plus noise; each reading is
// anomalous with AnomalyRate probability, multiplying the load.
type Meters struct {
	rng         *rand.Rand
	nMeters     int
	t           time.Time
	step        time.Duration
	AnomalyRate float64
	AnomalyMult float64
}

// NewMeters creates a meter-fleet generator.
func NewMeters(seed int64, nMeters int) *Meters {
	return &Meters{
		rng:         rand.New(rand.NewSource(seed)),
		nMeters:     nMeters,
		t:           time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC),
		step:        15 * time.Minute,
		AnomalyRate: 0.005,
		AnomalyMult: 3.0,
	}
}

// Next returns the next reading, round-robin across meters.
func (g *Meters) Next() MeterReading {
	meter := int(g.t.UnixNano()/int64(g.step)) % g.nMeters
	hour := float64(g.t.Hour()) + float64(g.t.Minute())/60
	base := 10 + 8*math.Sin((hour-6)/24*2*math.Pi)
	v := base + g.rng.NormFloat64()*0.5
	anomaly := g.rng.Float64() < g.AnomalyRate
	if anomaly {
		v *= g.AnomalyMult
	}
	ev := event.New("meter.reading", map[string]any{
		"meter": fmt.Sprintf("MTR%04d", meter),
		"kwh":   math.Round(v*100) / 100,
	})
	ev.Time = g.t
	ev.Source = "feed/meters"
	g.t = g.t.Add(g.step)
	return MeterReading{Event: ev, Value: v, Anomaly: anomaly}
}

// Sensors generates bursty multi-sensor traffic (the SensorNet /
// ChemSecure use cases): mostly routine readings, with occasional
// bursts of elevated hazard levels at one site.
type Sensors struct {
	rng       *rand.Rand
	sites     []string
	t         time.Time
	burstLeft int
	burstSite int
	BurstRate float64
}

// NewSensors creates a generator over nSites.
func NewSensors(seed int64, nSites int) *Sensors {
	rng := rand.New(rand.NewSource(seed))
	g := &Sensors{
		rng:       rng,
		t:         time.Date(2026, 6, 10, 0, 0, 0, 0, time.UTC),
		BurstRate: 0.002,
	}
	for i := 0; i < nSites; i++ {
		g.sites = append(g.sites, fmt.Sprintf("site-%02d", i))
	}
	return g
}

// Next returns the next sensor event; InBurst reports whether it is
// part of a hazard burst.
func (g *Sensors) Next() (ev *event.Event, inBurst bool) {
	g.t = g.t.Add(time.Duration(50+g.rng.Intn(200)) * time.Millisecond)
	site := g.rng.Intn(len(g.sites))
	level := math.Abs(g.rng.NormFloat64()) // routine background
	if g.burstLeft > 0 {
		site = g.burstSite
		level = 8 + g.rng.Float64()*4
		g.burstLeft--
		inBurst = true
	} else if g.rng.Float64() < g.BurstRate {
		g.burstSite = site
		g.burstLeft = 10 + g.rng.Intn(20)
		level = 8 + g.rng.Float64()*4
		inBurst = true
	}
	ev = event.New("sensor.reading", map[string]any{
		"site":    g.sites[site],
		"kind":    []string{"chem", "rad", "bio"}[g.rng.Intn(3)],
		"level":   math.Round(level*100) / 100,
		"battery": 20 + g.rng.Intn(80),
	})
	ev.Time = g.t
	ev.Source = "feed/sensors"
	return ev, inBurst
}
