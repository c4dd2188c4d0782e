// Package event defines the event model: a typed, timestamped record of
// something that happened, with its JSON wire form (json.go) and the
// binary form staging areas store (Encode, Decode).
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
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
// non-copyable; derive modified events with Clone instead of copying
// the struct.
type Event struct {
	ID     ID
	Type   string
	Source string
	Time   time.Time
	// Attrs is nil on an event that UnmarshalJSONEventString decoded
	// from canonical input, every published event, until Fields builds
	// it: such an event's attributes are offsets into the bytes it
	// arrived in. Read one with Get; range over them with Fields.
	Attrs map[string]val.Value

	// enc atomically publishes the cached JSON wire form. Nil until the
	// first EncodedJSON call, unless the decoder pointed it at kept;
	// never reset (events are immutable once shared — Clone returns a
	// fresh event with an empty cache).
	enc atomic.Pointer[[]byte]
	// kept is the canonical input the event was decoded from, held here
	// so that publishing it costs no allocation.
	kept []byte

	// The offset table of an event whose attributes stay in kept: each
	// attribute's key and value start, in key order, and where the attrs
	// object closes; end is 0 on an event without one. fields guards
	// Fields' one build of Attrs from it.
	at     [maxTableAttrs]attrAt
	end    uint16
	n      uint8
	fields sync.Once
}

// maxTableAttrs is how many attributes an offset table holds: as many
// as keep Event within 160 bytes, the size class it is allocated in. An
// event with more has its attributes in the map.
const maxTableAttrs = 10

// attrAt is one attribute of an offset table: where its key and its
// value start in kept. Canonical input has no white space, so a key
// ends two bytes before its value (`":`), and a value two bytes before
// the next key (`,"`) or where the attrs object closes.
type attrAt struct{ key, val uint16 }

// attr returns the table's i-th attribute. It allocates nothing: the
// key and a string value are parts of kept.
func (e *Event) attr(i int) (string, val.Value) {
	a, end := e.at[i], int(e.end)
	if i+1 < int(e.n) {
		end = int(e.at[i+1].key) - 2
	}
	return keptText(e.kept, int(a.key), int(a.val)-2), canonicalValue(e.kept, int(a.val), end)
}

// keptText is the text at [from, to) of kept, which is never written.
func keptText(kept []byte, from, to int) string {
	if from == to {
		return ""
	}
	return unsafe.String(&kept[from], to-from)
}

// canonicalValue reads the value at [from, to) of kept, one the scanner
// took as canonical: a string without escapes, an integer of at most 15
// characters, true, false or null.
func canonicalValue(kept []byte, from, to int) val.Value {
	switch kept[from] {
	case '"':
		return val.String(keptText(kept, from+1, to-1))
	case 't':
		return val.Bool(true)
	case 'f':
		return val.Bool(false)
	case 'n':
		return val.Null
	}
	neg := kept[from] == '-'
	if neg {
		from++
	}
	var n int64
	for _, d := range kept[from:to] {
		n = n*10 + int64(d-'0')
	}
	if neg {
		n = -n
	}
	return val.Int(n)
}

// Fields returns the event's attributes as a map, for code that ranges
// over them: Attrs, which on an event with an offset table the first
// call builds, safely from any number of goroutines at once. To read
// one attribute use Get, which builds nothing.
func (e *Event) Fields() map[string]val.Value {
	if e.end != 0 {
		e.fields.Do(func() {
			m := make(map[string]val.Value, e.n)
			for i := 0; i < int(e.n); i++ {
				k, v := e.attr(i)
				m[k] = v
			}
			e.Attrs = m
		})
	}
	return e.Attrs
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
	if e.end == 0 {
		v, ok := e.Attrs[name]
		return v, ok
	}
	// The keys ascend, so the first one past name ends the search.
	for i := 0; i < int(e.n); i++ {
		a := e.at[i]
		if k := keptText(e.kept, int(a.key), int(a.val)-2); k >= name {
			if k > name {
				break
			}
			_, v := e.attr(i)
			return v, true
		}
	}
	return val.Null, false
}

// Clone returns a deep copy of the event (attribute map is copied; the
// immutable values are shared). The copy's encode cache starts empty:
// sharing the original's would serve stale JSON once the copy changes.
func (e *Event) Clone() *Event {
	attrs := e.Fields()
	cp := &Event{ID: e.ID, Type: e.Type, Source: e.Source, Time: e.Time,
		Attrs: make(map[string]val.Value, len(attrs)+1)}
	for k, v := range attrs {
		cp.Attrs[k] = v
	}
	return cp
}

// String renders the event compactly for logs and tests, with attributes
// in sorted order for determinism.
func (e *Event) String() string {
	attrs := e.Fields()
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("%s#%d{", e.Type, e.ID)
	for i, k := range keys {
		if i > 0 {
			s += ", "
		}
		s += k + "=" + attrs[k].String()
	}
	return s + "}"
}

// Encode serializes the event to the engine's binary format. An event
// with an offset table is written from it, whose keys are in order.
func Encode(dst []byte, e *Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.ID))
	dst = appendString(dst, e.Type)
	dst = appendString(dst, e.Source)
	dst = binary.AppendVarint(dst, e.Time.UnixNano())
	if e.end != 0 {
		dst = binary.AppendUvarint(dst, uint64(e.n))
		for i := 0; i < int(e.n); i++ {
			k, v := e.attr(i)
			dst = val.AppendBinary(appendString(dst, k), v)
		}
		return dst
	}
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
