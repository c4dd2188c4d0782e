package main

import (
	"fmt"
	"time"

	"eventdb/client"
	"eventdb/internal/event"
	"eventdb/internal/val"
)

// selective: text wire; B registers thousands of narrow SUB filters
// and two-step PATTERNs, so each event matches only 1-3 subscriptions
// and planted order/fill pairs yield a known number of composites. The
// rules/pubsub/cep indexes do most of the work and the push side
// almost none: the opposite of fanout.
//
// The op stream repeats a template of cycle slots. A slot fixes the
// event's symbol, quantity and role (tick, range tick, order, fill),
// so the expected deliveries are computed once per slot by brute force
// over every filter; only the op id and the correlation id change
// from cycle to cycle.
type selective struct {
	seed  uint64
	sizes selectiveSizes

	filters []subFilter
	slots   []slot

	subs     []*client.Subscription
	cepSub   *client.Subscription
	cepCheck *subCheck
	// anomalies holds a checker only for subscriptions that have seen a
	// delivery out of turn; the common path needs no per-subscription
	// state beyond the channel itself.
	anomalies map[int]*subCheck
}

type selectiveSizes struct {
	syms     int // symbols; each carries eqPerSym equality filters
	ranges   int // range-only filters
	patterns int
}

var (
	selectiveFull  = selectiveSizes{syms: 6000, ranges: 2000, patterns: 2000}
	selectiveSmoke = selectiveSizes{syms: 60, ranges: 20, patterns: 20}
)

const (
	eqPerSym = 3
	// Equality filter j of a symbol requires qty >= j*eqStep, and tick
	// quantities are below qtySpan, so a tick matches 1 to 3 of them.
	eqStep  = 400
	qtySpan = 1000
	// Every rangeEvery-th slot is a range tick: a symbol no equality
	// filter names and a quantity at or above qtySpan, where exactly one
	// unit-wide range filter sits.
	rangeEvery = 10
	// Every pairEvery-th slot is an order; its fill follows pairGap
	// slots later with the same correlation id.
	pairEvery = 20
	pairGap   = 7
	pairPhase = 3
	noSym     = "NOSYM"
)

// subFilter is one registered SUB filter in structured form: the
// generator renders it to the filter language for the daemon and
// evaluates it directly for the reference.
type subFilter struct {
	sym    string // "" for a range-only filter
	minQty int64
	lo, hi int64 // range-only: lo <= qty < hi
}

func (f subFilter) String() string {
	if f.sym == "" {
		return fmt.Sprintf("qty >= %d AND qty < %d", f.lo, f.hi)
	}
	return fmt.Sprintf("sym = '%s' AND qty >= %d", f.sym, f.minQty)
}

func (f subFilter) matches(sym string, qty int64) bool {
	if f.sym == "" {
		return qty >= f.lo && qty < f.hi
	}
	return f.sym == sym && qty >= f.minQty
}

type slotRole uint8

const (
	roleTick slotRole = iota
	roleOrder
	roleFill
)

// slot is one position of the repeating template.
type slot struct {
	role   slotRole
	sym    string
	qty    int64
	desk   int   // order/fill: which pattern the pair belongs to
	expect []int // indexes of the filters this slot's event matches
}

func newSelective(seed uint64, sizes selectiveSizes) *selective {
	w := &selective{seed: seed, sizes: sizes}
	for i := 0; i < sizes.syms; i++ {
		for j := 0; j < eqPerSym; j++ {
			w.filters = append(w.filters, subFilter{sym: symName(i), minQty: int64(j * eqStep)})
		}
	}
	for j := 0; j < sizes.ranges; j++ {
		w.filters = append(w.filters, subFilter{lo: qtySpan + int64(j), hi: qtySpan + int64(j) + 1})
	}
	// One slot per symbol, in a seed-shuffled order, so a subscription
	// receives at most one event per cycle and its channel stays short.
	perm := permutation(seed, sizes.syms)
	w.slots = make([]slot, sizes.syms)
	for i := range w.slots {
		sl := &w.slots[i]
		sl.sym = symName(perm[i])
		sl.qty = int64(rnd(seed, streamQty, uint64(i)) % qtySpan)
		switch {
		case i%rangeEvery == rangeEvery-1:
			sl.sym = noSym
			sl.qty = qtySpan + int64(rnd(seed, streamRange, uint64(i))%uint64(sizes.ranges))
		case i%pairEvery == pairPhase && i+pairGap < len(w.slots):
			sl.role = roleOrder
			sl.desk = int(rnd(seed, streamDesk, uint64(i)) % uint64(sizes.patterns))
			w.slots[i+pairGap].role = roleFill
			w.slots[i+pairGap].desk = sl.desk
		}
	}
	// The reference: every filter evaluated against every slot.
	for i := range w.slots {
		sl := &w.slots[i]
		for fi, f := range w.filters {
			if f.matches(sl.sym, sl.qty) {
				sl.expect = append(sl.expect, fi)
			}
		}
	}
	return w
}

func symName(i int) string { return fmt.Sprintf("SYM%04d", i) }

func (w *selective) name() string              { return "selective" }
func (w *selective) dialOpts() []client.Option { return nil }
func (w *selective) durable() bool             { return false }
func (w *selective) batch() int                { return 64 }
func (w *selective) openRate() float64         { return openRates["selective"] }
func (w *selective) kind() string              { return "pub" }
func (w *selective) cycle() int64              { return int64(len(w.slots)) }

func (w *selective) patternSpec(p int) client.PatternSpec {
	return client.PatternSpec{
		Steps: []client.PatternStep{
			{Alias: "a", Type: "order", Guard: fmt.Sprintf("desk = %d", p)},
			{Alias: "b", Type: "fill", Guard: "cid = a.cid"},
		},
		Within: "1s",
	}
}

func (w *selective) hashInputs(ih *inputHash) {
	for i, f := range w.filters {
		ih.add("SUB s%d %s", i, f)
	}
	for p := 0; p < w.sizes.patterns; p++ {
		ih.add("PATTERN p%d %+v", p, w.patternSpec(p))
	}
	ih.add("SUB cep $type LIKE 'cep.%%'")
	for k := int64(0); k < hashedOps; k++ {
		sl := w.slots[k%w.cycle()]
		ih.add("op %d role=%d sym=%s qty=%d desk=%d cid=%d expect=%v", k, sl.role, sl.sym, sl.qty, sl.desk, w.cid(k), sl.expect)
	}
}

// cid is the correlation id of op k: an order's own op id, a fill's
// order's op id, so the two halves of a pair share it and no two pairs
// ever do.
func (w *selective) cid(k int64) int64 {
	switch w.slots[k%w.cycle()].role {
	case roleOrder:
		return k
	case roleFill:
		return k - pairGap
	}
	return -1
}

func (w *selective) setup(s *session) error {
	w.subs = make([]*client.Subscription, len(w.filters))
	w.anomalies = make(map[int]*subCheck)
	for i, f := range w.filters {
		sub, err := s.b.Subscribe(fmt.Sprintf("s%d", i), f.String(), 16)
		if err != nil {
			return fmt.Errorf("selective: SUB s%d: %w", i, err)
		}
		w.subs[i] = sub
	}
	for p := 0; p < w.sizes.patterns; p++ {
		if err := s.b.Pattern(fmt.Sprintf("p%d", p), w.patternSpec(p)); err != nil {
			return fmt.Errorf("selective: PATTERN p%d: %w", p, err)
		}
	}
	sub, err := s.b.Subscribe("cep", "$type LIKE 'cep.%'", 2*inflightCap)
	if err != nil {
		return fmt.Errorf("selective: SUB cep: %w", err)
	}
	w.cepSub, w.cepCheck = sub, newSubCheck()
	return nil
}

func (w *selective) event(k int64) *client.Event {
	sl := &w.slots[k%w.cycle()]
	ev := &client.Event{
		ID:   event.ID(k + 1),
		Type: "tick",
		Time: time.Now().UTC(),
		Attrs: map[string]val.Value{
			"seq": val.Int(k),
			"sym": val.String(sl.sym),
			"qty": val.Int(sl.qty),
		},
	}
	switch sl.role {
	case roleOrder:
		ev.Type = "order"
	case roleFill:
		ev.Type = "fill"
	default:
		return ev
	}
	ev.Attrs["desk"] = val.Int(int64(sl.desk))
	ev.Attrs["cid"] = val.Int(w.cid(k))
	return ev
}

func (w *selective) sendBatch(s *session, k int64, n int) error {
	return publishOps(s.a, k, n, w.event)
}

func (w *selective) sendOne(s *session, k int64) error {
	_, err := s.a.Publish(w.event(k))
	return err
}

// recvSub reads the next delivery of filter fi, grading its content.
func (w *selective) recvSub(s *session, fi int) (int64, bool) {
	ev, ok := recvEvent(s, w.subs[fi].C)
	if !ok {
		return 0, false
	}
	id := attrInt(ev, "seq")
	if id < 0 {
		s.fb.wrong++
		return id, true
	}
	sl := &w.slots[id%w.cycle()]
	sym, _ := ev.Attrs["sym"].AsString()
	if sym != sl.sym || attrInt(ev, "qty") != sl.qty || !w.filters[fi].matches(sym, sl.qty) {
		s.fb.wrong++
	}
	return id, true
}

// recvComposite reads the next composite event, identified by the op
// id of the fill that completed it.
func (w *selective) recvComposite(s *session) (int64, bool) {
	ev, ok := recvEvent(s, w.cepSub.C)
	if !ok {
		return 0, false
	}
	id := attrInt(ev, "b_seq")
	if id < 0 {
		s.fb.wrong++
		return id, true
	}
	sl := &w.slots[id%w.cycle()]
	if sl.role != roleFill || ev.Type != fmt.Sprintf("cep.p%d", sl.desk) ||
		attrInt(ev, "a_seq") != id-pairGap || attrInt(ev, "a_cid") != id-pairGap {
		s.fb.wrong++
	}
	return id, true
}

func (w *selective) await(s *session, k int64) (time.Time, bool) {
	sl := &w.slots[k%w.cycle()]
	ok := true
	for _, fi := range sl.expect {
		if c := w.anomalies[fi]; c != nil {
			ok = c.await(k, func() (int64, bool) { return w.recvSub(s, fi) }, &s.fb) && ok
			continue
		}
		id, got := w.recvSub(s, fi)
		switch {
		case !got:
			s.fb.missing++
			ok = false
		case id != k:
			// First anomaly on this subscription: hand it to a full
			// checker, replaying the delivery just read.
			c := newSubCheck()
			w.anomalies[fi] = c
			replay := true
			ok = c.await(k, func() (int64, bool) {
				if replay {
					replay = false
					return id, true
				}
				return w.recvSub(s, fi)
			}, &s.fb) && ok
		}
	}
	if sl.role == roleFill {
		ok = w.cepCheck.await(k, func() (int64, bool) { return w.recvComposite(s) }, &s.fb) && ok
	}
	return time.Now(), ok
}

func (w *selective) finish(s *session) {
	for _, sub := range w.subs {
		s.fb.leftover(len(sub.C), sub.Dropped())
	}
	s.fb.leftover(len(w.cepSub.C), w.cepSub.Dropped())
}
