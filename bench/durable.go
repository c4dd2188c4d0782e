package main

import (
	"fmt"
	"time"

	"eventdb/client"
)

// durable: text wire, eventdbd -dir, one manual-ack QSUB on B. An op
// is an event published, its QEVT received and its ACK confirmed, so
// queue staging, the storage engine and the WAL do most of the work,
// and no other workload touches them. The flush policy is the
// daemon's own (see flushPolicy).
type durable struct {
	gen   tickGen
	sub   *client.DurableSub
	check *subCheck
	recv  func() (int64, bool)
}

const (
	durableQueue = "e23q"
	// flushPolicy is stated in the output: eventdbd has no flag for it.
	flushPolicy = "SyncEvery=0: WAL appends are buffered and left to the OS, no fsync per commit (eventdbd has no flag for it)"
)

func newDurable(seed uint64) *durable { return &durable{gen: newTickGen(seed)} }

func (w *durable) name() string              { return "durable" }
func (w *durable) dialOpts() []client.Option { return nil }
func (w *durable) durable() bool             { return true }
func (w *durable) batch() int                { return 64 }
func (w *durable) openRate() float64         { return openRates["durable"] }
func (w *durable) kind() string              { return "pub" }

func (w *durable) hashInputs(ih *inputHash) {
	ih.add("QSUB %s manual <all>", durableQueue)
	for k := int64(0); k < hashedOps; k++ {
		ih.add("%s", w.gen.describe(k))
	}
}

func (w *durable) setup(s *session) error {
	sub, err := s.b.DurableSubscribe(durableQueue, "", client.DurableOptions{Buffer: 2 * inflightCap})
	if err != nil {
		return fmt.Errorf("durable: QSUB: %w", err)
	}
	w.attach(s, sub)
	return nil
}

// attach points the checker at a (re)opened subscription. Every
// delivery received is acknowledged, expected or not, so an anomaly
// cannot wedge the queue behind the prefetch limit.
func (w *durable) attach(s *session, sub *client.DurableSub) {
	w.sub = sub
	w.check = newSubCheck()
	w.recv = func() (int64, bool) {
		select {
		case d, ok := <-sub.C:
			if !ok {
				return 0, false
			}
			id := w.gen.check(d.Event, &s.fb)
			if err := d.Ack(); err != nil {
				s.fb.errored++
			}
			return id, true
		case <-s.stop:
			return 0, false
		}
	}
}

func (w *durable) sendBatch(s *session, k int64, n int) error {
	return publishOps(s.a, k, n, w.gen.event)
}

func (w *durable) sendOne(s *session, k int64) error {
	_, err := s.a.Publish(w.gen.event(k))
	return err
}

func (w *durable) await(s *session, k int64) (time.Time, bool) {
	ok := w.check.await(k, w.recv, &s.fb)
	return time.Now(), ok
}

func (w *durable) finish(s *session) {
	s.fb.leftover(len(w.sub.C), w.sub.Dropped())
	st, err := s.b.QueueStats(durableQueue)
	if err != nil {
		s.fb.errored++
		return
	}
	// Every op was acknowledged, so the queue must be empty.
	s.fb.wrong += int64(st.Ready + st.Inflight + st.Dead)
}

// crashResult is what the crash check observed.
type crashResult struct {
	published int // acknowledged publishes before the kill
	window    int // acknowledged publishes between two WAL flushes seen from outside
	exposed   int // acknowledged publishes since the last flush seen, at the kill
	recovered int // deliveries after the restart: a duplicate-free prefix of the published events
}

// lost is how many acknowledged publishes the restart did not give back.
func (r crashResult) lost() int { return r.published - r.recovered }

// keptRatio is the share of the last crashCheckEvents acknowledged
// publishes that the restart gave back: the end-to-end crash_kept_ratio.
func (r crashResult) keptRatio() float64 {
	return 1 - float64(min(r.lost(), crashCheckEvents))/crashCheckEvents
}

// crashCheckEvents is the fewest events the crash check publishes
// before the kill, and the denominator of crash_kept_ratio. It
// outsizes the daemon's WAL buffer several times over, so the lost
// tail cannot reach back into the timed phases' acknowledgements.
const crashCheckEvents = 1000

var crashEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// crashCheck publishes events nobody consumes, SIGKILLs the daemon,
// restarts it on the same -dir and consumes what it recovered. This is
// a process kill: the OS page cache survives, so it says nothing about
// power loss.
//
// A kill at a random moment loses a random share of whatever the
// daemon holds in user space, which would make the result a lottery.
// So the check picks the worst moment and the result repeats: it
// publishes one event per round trip, watches the -dir grow from
// outside to learn how many acknowledgements lie between two flushes
// (the window), and kills when the next publish but one would trigger
// a flush, with a whole window acknowledged and nothing of it on disk.
// A daemon that flushes before it acknowledges shows a window of 1 and
// loses nothing.
//
// Two things come out. Graded as failed ops: the recovered events must
// be exactly a prefix of the published ones, each once, in order and
// intact. Measured as crash_kept_ratio, with a bound like any other
// end-to-end metric: how many of the last crashCheckEvents
// acknowledgements survived. At the commit that introduced the
// benchmark eventdbd acknowledges a publish whose WAL record is still
// in a 64 KiB user-space buffer (SyncEvery=0, and no flag changes it),
// so about 220 of them do not; that is the daemon's flush policy, not a
// wrong answer, which is why it is a metric and not a failure.
func (w *durable) crashCheck(s *session, bin, logPath string, from int64) (crashResult, error) {
	var res crashResult
	if err := w.sub.Close(); err != nil {
		return res, fmt.Errorf("crash check: detach consumer: %w", err)
	}
	size, err := dirBytes(s.dir)
	if err != nil {
		return res, fmt.Errorf("crash check: %w", err)
	}
	flushes := 0
	// Without two flushes to measure a window from, the check stops at
	// four times its minimum and kills there.
	for ; res.published < 4*crashCheckEvents; res.published++ {
		if res.published >= crashCheckEvents && flushes >= 2 && res.exposed >= res.window-2 {
			break
		}
		ev := w.gen.event(from + int64(res.published))
		// A whole-second stamp keeps every record the same length.
		ev.Time = crashEpoch.Add(time.Duration(res.published) * time.Second)
		if _, err := s.a.Publish(ev); err != nil {
			return res, fmt.Errorf("crash check: publish: %w", err)
		}
		now, err := dirBytes(s.dir)
		if err != nil {
			return res, fmt.Errorf("crash check: %w", err)
		}
		res.exposed++
		if now != size {
			if flushes++; flushes >= 2 {
				res.window = res.exposed
			}
			size, res.exposed = now, 0
		}
	}
	s.attempted += int64(res.published)
	s.a.Close()
	s.b.Close()
	s.d.kill()

	d, err := spawnDaemon(bin, logPath, "-dir", s.dir)
	if err != nil {
		return res, fmt.Errorf("crash check: restart: %w", err)
	}
	s.d = d
	if s.a, err = client.Dial(d.addr); err != nil {
		return res, fmt.Errorf("crash check: redial: %w", err)
	}
	if s.b, err = client.Dial(d.addr); err != nil {
		return res, fmt.Errorf("crash check: redial: %w", err)
	}
	st, err := s.a.QueueStats(durableQueue)
	if err != nil {
		return res, fmt.Errorf("crash check: QSTATS: %w", err)
	}
	res.recovered = st.Ready + st.Inflight
	if res.recovered > res.published || st.Dead > 0 {
		s.fb.duplicate += int64(max(res.recovered-res.published, 0))
		s.fb.wrong += int64(st.Dead)
		res.recovered = min(res.recovered, res.published)
	}
	sub, err := s.b.DurableSubscribe(durableQueue, "", client.DurableOptions{Buffer: 2 * inflightCap})
	if err != nil {
		return res, fmt.Errorf("crash check: re-attach: %w", err)
	}
	w.attach(s, sub)
	s.stop = make(chan struct{})
	stop := s.stop
	drain := time.AfterFunc(drainCap, func() { close(stop) })
	defer drain.Stop()
	for k := from; k < from+int64(res.recovered); k++ {
		w.await(s, k)
	}
	// Anything beyond the recovered prefix is a duplicate: give a late
	// redelivery a moment to show itself before looking.
	time.Sleep(50 * time.Millisecond)
	w.finish(s)
	return res, nil
}
