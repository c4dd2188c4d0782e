package main

import (
	"fmt"
	"time"

	"eventdb/client"
	"eventdb/internal/event"
	"eventdb/internal/val"
)

// The tick stream shared by fanout and durable: ~200-byte "tick"
// events whose fields are a pure function of (seed, op id).

const (
	tickSyms   = 6000
	tickPadLen = 100
)

type tickGen struct {
	seed uint64
	pad  val.Value
}

func newTickGen(seed uint64) tickGen {
	return tickGen{seed: seed, pad: val.String(padding(seed, tickPadLen))}
}

func (g tickGen) qty(k int64) int64 { return int64(rnd(g.seed, streamQty, uint64(k)) % 1000) }

func (g tickGen) sym(k int64) string {
	return fmt.Sprintf("SYM%04d", rnd(g.seed, streamSym, uint64(k))%tickSyms)
}

func (g tickGen) px(k int64) int64 { return int64(rnd(g.seed, streamPx, uint64(k)) % 100000) }

// event builds op k's event. The ID is the op id plus one (0 would ask
// the daemon to assign one); the time is the moment of sending, which
// the daemon's own push-delay histogram is measured from.
func (g tickGen) event(k int64) *client.Event {
	return &client.Event{
		ID:   event.ID(k + 1),
		Type: "tick",
		Time: time.Now().UTC(),
		Attrs: map[string]val.Value{
			"seq": val.Int(k),
			"sym": val.String(g.sym(k)),
			"qty": val.Int(g.qty(k)),
			"px":  val.Int(g.px(k)),
			"pad": g.pad,
		},
	}
}

func (g tickGen) describe(k int64) string {
	return fmt.Sprintf("tick seq=%d sym=%s qty=%d px=%d", k, g.sym(k), g.qty(k), g.px(k))
}

// check grades a delivered tick's content against the generator.
func (g tickGen) check(ev *client.Event, f *failures) int64 {
	id := attrInt(ev, "seq")
	if ev.Type != "tick" || attrInt(ev, "qty") != g.qty(id) || attrInt(ev, "px") != g.px(id) {
		f.wrong++
	}
	return id
}

// attrInt reads an integer attribute, -1 when absent or not an int.
func attrInt(ev *client.Event, name string) int64 {
	v, ok := ev.Attrs[name]
	if !ok {
		return -1
	}
	n, ok := v.AsInt()
	if !ok {
		return -1
	}
	return n
}
