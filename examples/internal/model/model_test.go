package model

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"eventdb/internal/val"
)

var t0 = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)

func TestConstantModel(t *testing.T) {
	m := &Constant{}
	if _, _, ok := m.Expect(t0); ok {
		t.Error("expectation before warm-up")
	}
	for i := 0; i < 20; i++ {
		m.Observe(t0, 10)
	}
	mean, std, ok := m.Expect(t0)
	if !ok || mean != 10 || std != 0 {
		t.Errorf("expect = %v %v %v", mean, std, ok)
	}
}

func TestSeasonalModelLearnsProfile(t *testing.T) {
	// Daily period, 24 buckets: value = hour of day.
	m, err := NewSeasonal(24*time.Hour, 24)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 5; day++ {
		for hour := 0; hour < 24; hour++ {
			ts := t0.Add(time.Duration(day)*24*time.Hour + time.Duration(hour)*time.Hour)
			m.Observe(ts, float64(hour)*10)
		}
	}
	for _, hour := range []int{0, 6, 12, 23} {
		ts := t0.Add(100*24*time.Hour + time.Duration(hour)*time.Hour)
		mean, _, ok := m.Expect(ts)
		if !ok {
			t.Fatalf("hour %d not warmed up", hour)
		}
		if math.Abs(mean-float64(hour)*10) > 1e-9 {
			t.Errorf("hour %d expectation = %v, want %v", hour, mean, hour*10)
		}
	}
}

func TestSeasonalValidation(t *testing.T) {
	if _, err := NewSeasonal(0, 10); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewSeasonal(time.Hour, 0); err == nil {
		t.Error("zero buckets accepted")
	}
}

func TestMonitorBoundaryEvents(t *testing.T) {
	m := &Monitor{Entity: "meter-1", Model: &Constant{}, Threshold: 3, MinStd: 0.5}
	rng := rand.New(rand.NewSource(11))
	// Warm-up and normal operation: no events.
	for i := 0; i < 100; i++ {
		ts := t0.Add(time.Duration(i) * time.Minute)
		if ev := m.Feed(ts, 10+rng.NormFloat64()*0.3); ev != nil {
			t.Fatalf("event during normal operation: %v", ev)
		}
	}
	// Deviation starts.
	ev := m.Feed(t0.Add(101*time.Minute), 50)
	if ev == nil || ev.Type != "deviation.start" {
		t.Fatalf("no start event: %v", ev)
	}
	if v, _ := ev.Get("entity"); !val.Equal(v, val.String("meter-1")) {
		t.Errorf("entity = %v", v)
	}
	if !m.InDeviation() {
		t.Error("not in deviation")
	}
	// Still deviant: no duplicate event.
	if ev := m.Feed(t0.Add(102*time.Minute), 55); ev != nil {
		t.Errorf("duplicate start: %v", ev)
	}
	// Recovery.
	ev = m.Feed(t0.Add(103*time.Minute), 10)
	if ev == nil || ev.Type != "deviation.end" {
		t.Fatalf("no end event: %v", ev)
	}
	if m.InDeviation() {
		t.Error("still in deviation after end")
	}
}

func TestMonitorDoesNotLearnDeviationsByDefault(t *testing.T) {
	m := &Monitor{Entity: "x", Model: &Constant{}, Threshold: 3, MinStd: 0.5}
	for i := 0; i < 50; i++ {
		m.Feed(t0, 10)
	}
	// Long anomaly: baseline must not drift to accept it.
	m.Feed(t0, 100) // start
	for i := 0; i < 200; i++ {
		m.Feed(t0, 100)
	}
	if !m.InDeviation() {
		t.Error("sustained anomaly became the new normal")
	}
	mean, _, _ := m.Model.Expect(t0)
	if math.Abs(mean-10) > 1 {
		t.Errorf("baseline drifted to %v", mean)
	}
}

func TestMonitorLearnDuringDeviation(t *testing.T) {
	m := &Monitor{Entity: "x", Model: &Constant{}, Threshold: 3, MinStd: 0.5,
		LearnDuringDeviation: true}
	for i := 0; i < 50; i++ {
		m.Feed(t0, 10)
	}
	m.Feed(t0, 100)
	for i := 0; i < 2000; i++ {
		m.Feed(t0, 100)
	}
	mean, _, _ := m.Model.Expect(t0)
	if mean < 50 {
		t.Errorf("learning model did not adapt: mean=%v", mean)
	}
}

func TestSeasonalMonitorBeatsConstantOnSeasonalData(t *testing.T) {
	// The paper's premise: a model of expected behaviour (here, the
	// daily cycle) separates real anomalies from ordinary peaks.
	seasonal, _ := NewSeasonal(24*time.Hour, 24)
	mSeason := &Monitor{Entity: "s", Model: seasonal, Threshold: 4, MinStd: 2}
	mConst := &Monitor{Entity: "c", Model: &Constant{}, Threshold: 4, MinStd: 2}

	rng := rand.New(rand.NewSource(5))
	profile := func(hour int) float64 {
		return 100 + 80*math.Sin(float64(hour)/24*2*math.Pi)
	}
	var seasonFP int
	for day := 0; day < 30; day++ {
		for hour := 0; hour < 24; hour++ {
			ts := t0.Add(time.Duration(day*24+hour) * time.Hour)
			v := profile(hour) + rng.NormFloat64()*3
			if ev := mSeason.Feed(ts, v); ev != nil && ev.Type == "deviation.start" && day > 10 {
				seasonFP++
			}
			mConst.Feed(ts, v)
		}
	}
	// The seasonal model must stay quiet on its own training
	// distribution.
	if seasonFP > 2 {
		t.Errorf("seasonal false alarms = %d", seasonFP)
	}
	// The payoff: a moderate anomaly (+60 over the expected phase value)
	// is obvious to the seasonal model but hides inside the constant
	// model's day-wide variance — expectations beat global statistics.
	ts := t0.Add(31 * 24 * time.Hour) // midnight: profile = 100
	anomaly := profile(0) + 60
	evSeason := mSeason.Feed(ts, anomaly)
	evConst := mConst.Feed(ts, anomaly)
	if evSeason == nil {
		t.Error("seasonal model missed moderate anomaly")
	}
	if evConst != nil {
		t.Error("constant model implausibly caught what its variance should hide")
	}
	// And a gross anomaly is caught regardless.
	if ev := mSeason.Feed(ts.Add(time.Hour), 1000); ev == nil && !mSeason.InDeviation() {
		t.Error("seasonal model missed gross anomaly")
	}
}
