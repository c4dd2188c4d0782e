package main

import (
	"fmt"
	"time"

	"eventdb/client"
)

// fanout: binary wire, 16 match-everything subscriptions on B, ~200-byte
// ticks from A. Matching is trivial, so the daemon's read loop, out
// queue, writer coalescing, frame codec and encode-once cache do almost
// all the work: wire cost shows here and a matcher change must not.
type fanout struct {
	gen    tickGen
	subs   []*client.Subscription
	checks []*subCheck
	recvs  []func() (int64, bool)
}

const fanoutSubs = 16

func newFanout(seed uint64) *fanout { return &fanout{gen: newTickGen(seed)} }

func (w *fanout) name() string              { return "fanout" }
func (w *fanout) dialOpts() []client.Option { return []client.Option{client.WithBinary()} }
func (w *fanout) durable() bool             { return false }
func (w *fanout) batch() int                { return 64 }
func (w *fanout) openRate() float64         { return openRates["fanout"] }
func (w *fanout) kind() string              { return "pub" }

func (w *fanout) hashInputs(ih *inputHash) {
	for i := 0; i < fanoutSubs; i++ {
		ih.add("SUB f%d <all>", i)
	}
	for k := int64(0); k < hashedOps; k++ {
		ih.add("%s", w.gen.describe(k))
	}
}

func (w *fanout) setup(s *session) error {
	if !s.a.Binary() || !s.b.Binary() {
		return fmt.Errorf("fanout: binary wire was not negotiated")
	}
	w.subs, w.checks, w.recvs = nil, nil, nil
	for i := 0; i < fanoutSubs; i++ {
		// Each op puts one event on every subscription, so a channel can
		// hold at most the in-flight cap; twice that never overflows.
		sub, err := s.b.Subscribe(fmt.Sprintf("f%d", i), "", 2*inflightCap)
		if err != nil {
			return fmt.Errorf("fanout: SUB f%d: %w", i, err)
		}
		w.subs = append(w.subs, sub)
		w.checks = append(w.checks, newSubCheck())
		w.recvs = append(w.recvs, func() (int64, bool) {
			ev, ok := recvEvent(s, sub.C)
			if !ok {
				return 0, false
			}
			return w.gen.check(ev, &s.fb), true
		})
	}
	return nil
}

func (w *fanout) sendBatch(s *session, k int64, n int) error {
	return publishOps(s.a, k, n, w.gen.event)
}

func (w *fanout) sendOne(s *session, k int64) error {
	_, err := s.a.Publish(w.gen.event(k))
	return err
}

func (w *fanout) await(s *session, k int64) (time.Time, bool) {
	ok := true
	for i := range w.subs {
		if !w.checks[i].await(k, w.recvs[i], &s.fb) {
			ok = false
		}
	}
	return time.Now(), ok
}

func (w *fanout) finish(s *session) {
	for _, sub := range w.subs {
		s.fb.leftover(len(sub.C), sub.Dropped())
	}
}
