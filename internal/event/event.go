// Package event defines the event model: a typed, timestamped record of
// something that happened, plus schemas for validating event streams and
// batches for efficient transport between pipeline stages.
//
// Events are the lingua franca of the engine. Capture components
// (triggers, journal mining, query differs) produce them, staging areas
// store them, and the evaluation layer (rules, pub/sub, CEP, continuous
// queries) consumes them.
package event

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"eventdb/internal/val"
)

// ID is a unique event identifier assigned at creation.
type ID uint64

var idCounter atomic.Uint64

// NextID returns a process-unique monotonically increasing event ID.
func NextID() ID { return ID(idCounter.Add(1)) }

// Event is an immutable record of an occurrence. Type names the event
// class (e.g. "trade", "meter.reading"); Source identifies the producer;
// Time is the occurrence time (event time, not processing time); Attrs
// carries the typed payload.
//
// Events are shared by pointer across every evaluation and delivery
// layer, so the struct also carries the encode-once cache used by the
// fan-out hot path (see EncodedJSON). The cache makes Event
// non-copyable; derive modified events with WithAttr or Clone instead
// of copying the struct.
type Event struct {
	ID     ID
	Type   string
	Source string
	Time   time.Time
	Attrs  map[string]val.Value

	// enc atomically publishes the cached JSON wire form. Nil until the
	// first EncodedJSON call; never reset (events are immutable once
	// shared — WithAttr and Clone return fresh events with empty
	// caches).
	enc atomic.Pointer[[]byte]
}

// EncodedJSON returns the event's JSON wire form (see
// MarshalJSONEvent), marshaling at most once per event: the first
// encoding is atomically published and every later call — from any
// goroutine, for any sink — returns the same immutable byte slice, so
// an event fanned out to M subscribers across any number of
// connections is encoded once, not M times. Callers must treat the
// returned slice as read-only.
func (e *Event) EncodedJSON() ([]byte, error) {
	if p := e.enc.Load(); p != nil {
		return *p, nil
	}
	data, err := MarshalJSONEvent(e)
	if err != nil {
		return nil, err
	}
	if e.enc.CompareAndSwap(nil, &data) {
		return data, nil
	}
	// Lost the publish race: hand back the winner so every caller
	// shares one slice.
	return *e.enc.Load(), nil
}

// New constructs an event of the given type with a fresh ID and the
// current UTC time. Attribute values are converted with val.FromAny;
// unsupported types panic, so use NewChecked for untrusted input.
func New(typ string, attrs map[string]any) *Event {
	ev, err := NewChecked(typ, attrs)
	if err != nil {
		panic(err)
	}
	return ev
}

// NewChecked is New returning conversion errors instead of panicking.
func NewChecked(typ string, attrs map[string]any) (*Event, error) {
	converted := make(map[string]val.Value, len(attrs))
	for k, v := range attrs {
		cv, err := val.FromAny(v)
		if err != nil {
			return nil, fmt.Errorf("event: attribute %q: %w", k, err)
		}
		converted[k] = cv
	}
	return &Event{
		ID:    NextID(),
		Type:  typ,
		Time:  time.Now().UTC(),
		Attrs: converted,
	}, nil
}

// Get returns the named attribute. The pseudo-attributes "$type",
// "$source", "$id" and "$time" expose the envelope fields to expressions.
func (e *Event) Get(name string) (val.Value, bool) {
	switch name {
	case "$type":
		return val.String(e.Type), true
	case "$source":
		return val.String(e.Source), true
	case "$id":
		return val.Int(int64(e.ID)), true
	case "$time":
		return val.Time(e.Time), true
	}
	v, ok := e.Attrs[name]
	return v, ok
}

// WithAttr returns a shallow copy of the event with one attribute
// replaced. The original is not modified. The copy starts with an
// empty encode cache — sharing the original's would serve stale JSON
// for the changed attribute.
func (e *Event) WithAttr(name string, v val.Value) *Event {
	cp := e.Clone()
	cp.Attrs[name] = v
	return cp
}

// Clone returns a deep copy of the event (attribute map is copied; the
// immutable values are shared). The copy's encode cache starts empty.
func (e *Event) Clone() *Event {
	cp := &Event{ID: e.ID, Type: e.Type, Source: e.Source, Time: e.Time,
		Attrs: make(map[string]val.Value, len(e.Attrs)+1)}
	for k, v := range e.Attrs {
		cp.Attrs[k] = v
	}
	return cp
}

// String renders the event compactly for logs and tests, with attributes
// in sorted order for determinism.
func (e *Event) String() string {
	keys := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("%s#%d{", e.Type, e.ID)
	for i, k := range keys {
		if i > 0 {
			s += ", "
		}
		s += k + "=" + e.Attrs[k].String()
	}
	return s + "}"
}

// Encode serializes the event to the engine's binary format.
func Encode(dst []byte, e *Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.ID))
	dst = appendString(dst, e.Type)
	dst = appendString(dst, e.Source)
	dst = binary.AppendVarint(dst, e.Time.UnixNano())
	dst = binary.AppendUvarint(dst, uint64(len(e.Attrs)))
	// Deterministic order so encoding is canonical (audit hashing).
	keys := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = val.AppendBinary(dst, e.Attrs[k])
	}
	return dst
}

// Decode deserializes one event from buf, returning it and the bytes
// consumed.
func Decode(buf []byte) (*Event, int, error) {
	pos := 0
	id, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("event: bad id")
	}
	pos += n
	typ, n, err := decodeString(buf[pos:])
	if err != nil {
		return nil, 0, fmt.Errorf("event: type: %w", err)
	}
	pos += n
	src, n, err := decodeString(buf[pos:])
	if err != nil {
		return nil, 0, fmt.Errorf("event: source: %w", err)
	}
	pos += n
	ts, n := binary.Varint(buf[pos:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("event: bad time")
	}
	pos += n
	cnt, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("event: bad attr count")
	}
	pos += n
	if cnt > uint64(len(buf)) {
		return nil, 0, fmt.Errorf("event: attr count %d exceeds buffer", cnt)
	}
	attrs := make(map[string]val.Value, cnt)
	for i := uint64(0); i < cnt; i++ {
		k, n, err := decodeString(buf[pos:])
		if err != nil {
			return nil, 0, fmt.Errorf("event: attr key: %w", err)
		}
		pos += n
		v, n, err := val.DecodeBinary(buf[pos:])
		if err != nil {
			return nil, 0, fmt.Errorf("event: attr %q: %w", k, err)
		}
		pos += n
		attrs[k] = v
	}
	return &Event{
		ID:     ID(id),
		Type:   typ,
		Source: src,
		Time:   time.Unix(0, ts).UTC(),
		Attrs:  attrs,
	}, pos, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(buf []byte) (string, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return "", 0, fmt.Errorf("bad length")
	}
	if uint64(len(buf)-sz) < n {
		return "", 0, fmt.Errorf("short string: want %d have %d", n, len(buf)-sz)
	}
	return string(buf[sz : sz+int(n)]), sz + int(n), nil
}
