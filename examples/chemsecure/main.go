// ChemSecure: the paper's NASA hazardous-material use case — "any threat
// has to be known to the people who are authorized and able to respond
// most efficiently".
//
// Sensor events flow through rules that classify hazard levels; alerts
// route to responder queues, but only responders *authorized* for a
// site's material class may subscribe, and every access decision lands
// in the audit trail.
//
// Run with: go run ./examples/chemsecure
package main

import (
	"fmt"
	"log"

	"eventdb"
	"eventdb/examples/internal/audit"
	"eventdb/examples/internal/security"
	"eventdb/examples/internal/workload"
	"eventdb/internal/queue"
)

// secured puts a deny-by-default ACL guard in front of an engine and an
// audit trail, a table in the engine's own database, behind it. The
// engine knows neither: both are composed here over its public API.
type secured struct {
	*eventdb.Engine
	guard *security.Guard
	trail *audit.Trail
}

func secure(eng *eventdb.Engine, auditTable string) (*secured, error) {
	trail, err := audit.NewTrail(eng.DB, auditTable)
	if err != nil {
		return nil, err
	}
	return &secured{Engine: eng, guard: security.NewGuard(), trail: trail}, nil
}

// authorize makes one access decision and records it: a denial as
// "<action>.denied" with deniedDetail, an allowance as "<action>" with
// detail. A denial is returned even if recording it fails.
func (s *secured) authorize(principal string, action security.Action, resource, detail, deniedDetail string) error {
	if err := s.guard.Check(principal, action, resource); err != nil {
		s.trail.Record(principal, string(action)+".denied", resource, deniedDetail)
		return err
	}
	return s.trail.Record(principal, string(action), resource, detail)
}

// ingestAs is Ingest gated by ActPublish on "events/<type>".
func (s *secured) ingestAs(principal string, ev *eventdb.Event) error {
	if err := s.authorize(principal, security.ActPublish, "events/"+ev.Type, ev.String(), ""); err != nil {
		return err
	}
	return s.Ingest(ev)
}

// subscribeAs is Subscribe gated by ActSubscribe on "subscriptions".
func (s *secured) subscribeAs(principal, subID, filter string, h func(eventdb.Delivery)) error {
	if err := s.authorize(principal, security.ActSubscribe, "subscriptions", subID+" "+filter, subID); err != nil {
		return err
	}
	return s.Subscribe(subID, principal, filter, h)
}

func main() {
	base, err := eventdb.Open(eventdb.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer base.Close()
	eng, err := secure(base, "audit")
	if err != nil {
		log.Fatal(err)
	}

	// Authorization: chem responders handle chem; rad responders rad.
	// Carol (logistics) is not authorized for any hazard subscriptions.
	// The sensor network may publish readings and nothing else.
	eng.guard.Grant("alice-chem", security.ActSubscribe, "subscriptions")
	eng.guard.Grant("bob-rad", security.ActSubscribe, "subscriptions")
	eng.guard.Grant("sensor-net", security.ActPublish, "events/sensor.reading")

	deliveries := map[string]int{}
	subscribe := func(principal, filter string) {
		err := eng.subscribeAs(principal, "sub-"+principal, filter,
			func(d eventdb.Delivery) { deliveries[principal]++ })
		if err != nil {
			fmt.Printf("DENIED subscribe for %s: %v\n", principal, err)
			return
		}
		fmt.Printf("subscribed %s: %s\n", principal, filter)
	}
	subscribe("alice-chem", "$type = 'hazmat.alert' AND kind = 'chem'")
	subscribe("bob-rad", "$type = 'hazmat.alert' AND kind = 'rad'")
	subscribe("carol-logistics", "$type = 'hazmat.alert'") // denied

	// Escalation queue for alerts nobody handles in time.
	escalation, err := eng.CreateQueue("escalation", queue.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Rule: elevated readings become hazmat alerts (threat identified).
	err = eng.AddRule("hazard", "$type = 'sensor.reading' AND level >= 8", 10,
		func(ev *eventdb.Event, _ *eventdb.Rule) {
			alert := eventdb.NewEvent("hazmat.alert", nil)
			alert.Source = "chemsecure"
			alert.Attrs = ev.Fields()
			if err := eng.Ingest(alert); err != nil {
				log.Print(err)
			}
			if _, err := escalation.Enqueue(alert, queue.EnqueueOptions{Priority: 9}); err != nil {
				log.Print(err)
			}
		})
	if err != nil {
		log.Fatal(err)
	}

	// Drive the sensor feed.
	gen := workload.NewSensors(13, 6)
	gen.BurstRate = 0.004
	hazards := 0
	for i := 0; i < 30000; i++ {
		ev, inBurst := gen.Next()
		if inBurst {
			hazards++
		}
		if err := eng.ingestAs("sensor-net", ev); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("---")
	fmt.Printf("hazardous readings generated: %d\n", hazards)
	fmt.Printf("alice-chem notified:          %d\n", deliveries["alice-chem"])
	fmt.Printf("bob-rad notified:             %d\n", deliveries["bob-rad"])
	fmt.Printf("carol-logistics notified:     %d (unauthorized)\n", deliveries["carol-logistics"])
	st := escalation.Stats()
	fmt.Printf("escalation queue backlog:     %d\n", st.Ready)

	// The audit trail shows who was allowed and who was denied.
	entries, err := eng.trail.Entries("", "subscriptions")
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		fmt.Printf("audit: %-16s %-18s %s\n", e.Principal, e.Action, e.Detail)
	}
}
