// Utilities: the paper's utility use case — monitor usage and usage
// patterns by *management by exception*: each meter gets a seasonal
// expectation model; readings only surface when reality deviates from
// the model. Ground-truth labels from the generator score the detector
// (false positives / false negatives, the paper's keywords).
//
// Run with: go run ./examples/utilities
package main

import (
	"fmt"
	"log"
	"time"

	"eventdb"
	"eventdb/examples/internal/model"
	"eventdb/examples/internal/workload"
)

func main() {
	eng, err := eventdb.Open(eventdb.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Deviation boundary events route to the operations desk.
	var notified int
	err = eng.Subscribe("ops", "ops-desk", "$type = 'deviation.start'",
		func(d eventdb.Delivery) {
			notified++
			if notified <= 5 {
				entity, _ := d.Event.Get("entity")
				value, _ := d.Event.Get("value")
				expected, _ := d.Event.Get("expected")
				fmt.Printf("EXCEPTION %s: value %s, expected %s\n", entity, value, expected)
			}
		})
	if err != nil {
		log.Fatal(err)
	}

	// One seasonal model per meter: 24-hour period, hourly buckets.
	const nMeters = 10
	monitors := map[string]*model.Monitor{}
	monitorFor := func(meter string) *model.Monitor {
		m, ok := monitors[meter]
		if !ok {
			seasonal, err := model.NewSeasonal(24*time.Hour, 24)
			if err != nil {
				log.Fatal(err)
			}
			m = &model.Monitor{Entity: meter, Model: seasonal, Threshold: 5, MinStd: 0.6}
			monitors[meter] = m
		}
		return m
	}

	gen := workload.NewMeters(7, nMeters)
	gen.AnomalyRate = 0.004
	const nReadings = 60000
	var tp, fp, fn, total int
	var deviationOpen bool
	for i := 0; i < nReadings; i++ {
		r := gen.Next()
		total++
		meterV, _ := r.Event.Get("meter")
		meter, _ := meterV.AsString()
		kwhV, _ := r.Event.Get("kwh")
		kwh, _ := kwhV.AsFloat()

		m := monitorFor(meter)
		boundary := m.Feed(r.Event.Time, kwh)
		flagged := boundary != nil && boundary.Type == "deviation.start"
		if boundary != nil {
			if err := eng.Ingest(boundary); err != nil {
				log.Fatal(err)
			}
			deviationOpen = boundary.Type == "deviation.start"
		}
		_ = deviationOpen
		switch {
		case flagged && r.Anomaly:
			tp++
		case flagged && !r.Anomaly:
			fp++
		case !flagged && r.Anomaly && !m.InDeviation():
			fn++
		}
	}

	fmt.Println("---")
	fmt.Printf("readings processed:  %d (across %d meters)\n", total, nMeters)
	fmt.Printf("exceptions notified: %d\n", notified)
	fmt.Printf("true positives:      %d\n", tp)
	fmt.Printf("false positives:     %d\n", fp)
	fmt.Printf("false negatives:     %d\n", fn)
	precision := 0.0
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	recall := 0.0
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	fmt.Printf("precision:           %.3f\n", precision)
	fmt.Printf("recall:              %.3f\n", recall)
	fmt.Printf("information reduction: %d readings -> %d notifications (%.4f%%)\n",
		total, notified, float64(notified)/float64(total)*100)
}
