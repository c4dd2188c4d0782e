// Package model implements expectation models for "management by
// exception" (paper §2.1.f): subscribers hold models of expected
// behaviour; the system notifies them when reality — as measured —
// deviates from expectation, and models update as reality drifts.
package model

import (
	"fmt"
	"time"

	"eventdb/examples/internal/analytics"
	"eventdb/internal/event"
	"eventdb/internal/val"
)

// Model predicts the expected value (and spread) of a measurement at a
// given time, and learns from observations.
type Model interface {
	// Expect returns the expected mean and standard deviation at t.
	// ok is false while the model is still warming up.
	Expect(t time.Time) (mean, std float64, ok bool)
	// Observe incorporates a measurement.
	Observe(t time.Time, v float64)
}

// Constant models a stationary signal: one global mean/std.
type Constant struct {
	// MinObservations before Expect reports ok (default 10).
	MinObservations int64
	w               analytics.Welford
}

// Expect implements Model.
func (c *Constant) Expect(time.Time) (float64, float64, bool) {
	minN := c.MinObservations
	if minN <= 0 {
		minN = 10
	}
	if c.w.N() < minN {
		return 0, 0, false
	}
	return c.w.Mean(), c.w.Std(), true
}

// Observe implements Model.
func (c *Constant) Observe(_ time.Time, v float64) { c.w.Add(v) }

// Seasonal models a periodic signal (e.g. daily utility load): the
// period is divided into buckets, each with its own running statistics,
// so the expectation at 3 a.m. differs from the one at 6 p.m.
type Seasonal struct {
	period  time.Duration
	buckets []analytics.Welford
	// MinObservations per bucket before it reports ok (default 3).
	MinObservations int64
}

// NewSeasonal creates a seasonal model with the given period and bucket
// count.
func NewSeasonal(period time.Duration, buckets int) (*Seasonal, error) {
	if period <= 0 || buckets <= 0 {
		return nil, fmt.Errorf("model: period and buckets must be positive")
	}
	return &Seasonal{period: period, buckets: make([]analytics.Welford, buckets)}, nil
}

func (s *Seasonal) bucket(t time.Time) int {
	phase := t.UnixNano() % int64(s.period)
	if phase < 0 {
		phase += int64(s.period)
	}
	return int(phase * int64(len(s.buckets)) / int64(s.period))
}

// Expect implements Model.
func (s *Seasonal) Expect(t time.Time) (float64, float64, bool) {
	minN := s.MinObservations
	if minN <= 0 {
		minN = 3
	}
	b := &s.buckets[s.bucket(t)]
	if b.N() < minN {
		return 0, 0, false
	}
	return b.Mean(), b.Std(), true
}

// Observe implements Model.
func (s *Seasonal) Observe(t time.Time, v float64) {
	s.buckets[s.bucket(t)].Add(v)
}

// Monitor watches one measured entity against a model and emits events
// at deviation boundaries: "deviation.start" when reality leaves the
// expected band and "deviation.end" when it returns. This is exactly
// the paper's sense-and-respond loop: continuous measurements in,
// exceptional notifications out.
type Monitor struct {
	// Entity labels emitted events (e.g. a meter or account ID).
	Entity string
	// Model provides expectations.
	Model Model
	// Threshold in standard deviations (default 3).
	Threshold float64
	// MinStd floors the expected spread (default 1e-9).
	MinStd float64
	// LearnDuringDeviation lets deviant observations update the model.
	// Off by default: a sustained anomaly should not become the new
	// normal without operator action.
	LearnDuringDeviation bool

	inDeviation bool
	lastScore   float64
}

// InDeviation reports whether the entity is currently deviating.
func (m *Monitor) InDeviation() bool { return m.inDeviation }

// LastScore returns the most recent deviation score.
func (m *Monitor) LastScore() float64 { return m.lastScore }

// Feed processes one measurement and returns a boundary event, or nil
// when the deviation state did not change.
func (m *Monitor) Feed(t time.Time, v float64) *event.Event {
	threshold := m.Threshold
	if threshold <= 0 {
		threshold = 3
	}
	mean, std, ok := m.Model.Expect(t)
	var out *event.Event
	if ok {
		minStd := m.MinStd
		if minStd <= 0 {
			minStd = 1e-9
		}
		if std < minStd {
			std = minStd
		}
		score := (v - mean) / std
		m.lastScore = score
		deviant := score > threshold || score < -threshold
		switch {
		case deviant && !m.inDeviation:
			m.inDeviation = true
			out = m.boundaryEvent("deviation.start", t, v, mean, score)
		case !deviant && m.inDeviation:
			m.inDeviation = false
			out = m.boundaryEvent("deviation.end", t, v, mean, score)
		}
		if deviant && !m.LearnDuringDeviation {
			return out
		}
	}
	m.Model.Observe(t, v)
	return out
}

func (m *Monitor) boundaryEvent(typ string, t time.Time, v, mean, score float64) *event.Event {
	return &event.Event{
		ID:     event.NextID(),
		Type:   typ,
		Source: "model/" + m.Entity,
		Time:   t,
		Attrs: map[string]val.Value{
			"entity":   val.String(m.Entity),
			"value":    val.Float(v),
			"expected": val.Float(mean),
			"score":    val.Float(score),
		},
	}
}
