package event

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"eventdb/internal/val"
)

// JSON interchange for foreign systems (§2.2.b.i.2 of the paper: staging
// areas accept "messages that are created in foreign systems"). The wire
// form is a flat object with reserved envelope keys.
//
// Both directions are hand-rolled, because both sit on the per-event
// path of every wire connection. Encoding writes directly into a
// caller-supplied buffer (no intermediate map, no reflection) with
// attribute keys in sorted order so the encoding is canonical, and
// Event.EncodedJSON caches it, so an event is rendered once however
// many sinks it reaches. Decoding is a single forward scan that fills
// the Event as it reads. It runs once per published message on the
// server (UnmarshalJSONEventString), where the attributes of canonical
// input stay offsets into its bytes and no map is built, and once per
// distinct pushed body on a client connection (UnmarshalJSONEvent, which
// fills the map) — the client decodes per body, not per subscription.
// The encoding/json decoder it replaced lives on in the tests as the
// oracle the scanner is fuzzed against.

// encodeScratch is the pooled per-encode working set: the sorted-key
// slice that makes attribute order canonical without a per-call
// allocation, and the buffer MarshalJSONEvent renders into before it
// copies the result out at its exact size.
type encodeScratch struct {
	keys []string
	buf  []byte
}

var encodePool = sync.Pool{New: func() any { return new(encodeScratch) }}

// MarshalJSONEvent renders the event as JSON. Times are RFC 3339, bytes
// become base64 strings (the encoding/json convention for []byte).
// Prefer Event.EncodedJSON when the same event reaches several sinks —
// it caches this encoding so the work happens once.
//
// The result is one allocation of exactly its length: growing a nil
// slice by appends instead costs six allocations and more than twice
// the bytes for a 200-byte event, on every published and every pushed
// event, and garbage on that path is collector cycles per second.
func MarshalJSONEvent(e *Event) ([]byte, error) {
	sc := encodePool.Get().(*encodeScratch)
	buf, err := appendJSONEvent(sc.buf[:0], e, sc)
	var out []byte
	if err == nil {
		out = bytes.Clone(buf)
		if cap(buf) <= maxPooledEncode {
			sc.buf = buf
		}
	}
	encodePool.Put(sc)
	return out, err
}

// maxPooledEncode bounds the render buffer a pooled scratch keeps, so
// one huge event does not pin its size in the pool.
const maxPooledEncode = 64 << 10

// appendJSONEvent appends the event's JSON wire form to dst and returns
// the extended slice, using the caller's scratch. Attribute keys are
// emitted in sorted order, so the encoding is deterministic for a given
// event.
func appendJSONEvent(dst []byte, e *Event, sc *encodeScratch) ([]byte, error) {
	if e.end != 0 { // its attributes are in the encoding it was decoded from
		return append(dst, e.kept...), nil
	}
	dst = append(dst, '{')
	if e.ID != 0 {
		dst = append(dst, `"id":`...)
		dst = strconv.AppendUint(dst, uint64(e.ID), 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"type":`...)
	dst = appendJSONString(dst, e.Type)
	if e.Source != "" {
		dst = append(dst, `,"source":`...)
		dst = appendJSONString(dst, e.Source)
	}
	dst = append(dst, `,"time":"`...)
	dst = e.Time.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","attrs":{`...)

	keys := sc.keys[:0]
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var err error
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, k)
		dst = append(dst, ':')
		dst, err = appendJSONValue(dst, e.Attrs[k])
		if err != nil {
			break
		}
	}
	sc.keys = keys
	if err != nil {
		return nil, err
	}
	return append(dst, '}', '}'), nil
}

// appendJSONValue renders one attribute value.
func appendJSONValue(dst []byte, v val.Value) ([]byte, error) {
	switch v.Kind() {
	case val.KindNull:
		return append(dst, "null"...), nil
	case val.KindBool:
		b, _ := v.AsBool()
		if b {
			return append(dst, "true"...), nil
		}
		return append(dst, "false"...), nil
	case val.KindInt:
		n, _ := v.AsInt()
		return strconv.AppendInt(dst, n, 10), nil
	case val.KindFloat:
		f, _ := v.AsFloat()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("event: unsupported JSON float %v", f)
		}
		return strconv.AppendFloat(dst, f, 'g', -1, 64), nil
	case val.KindString:
		s, _ := v.AsString()
		return appendJSONString(dst, s), nil
	case val.KindTime:
		t, _ := v.AsTime()
		dst = append(dst, '"')
		dst = t.UTC().AppendFormat(dst, time.RFC3339Nano)
		return append(dst, '"'), nil
	case val.KindBytes:
		b, _ := v.AsBytes()
		n := base64.StdEncoding.EncodedLen(len(b))
		dst = append(dst, '"')
		off := len(dst)
		if cap(dst)-off < n {
			dst = append(dst, make([]byte, n)...)
		} else {
			dst = dst[:off+n]
		}
		base64.StdEncoding.Encode(dst[off:], b)
		return append(dst, '"'), nil
	}
	return nil, fmt.Errorf("event: unsupported JSON value kind %s", v.Kind())
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string. Control
// characters are escaped; invalid UTF-8 bytes become U+FFFD, matching
// encoding/json's coercion.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `�`...)
			i++
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// UnmarshalJSONEvent parses a JSON event produced by a foreign system
// into an event with its Attrs filled, as a client hands them out. JSON
// numbers that are integral become int values; others become floats.
// Missing IDs are assigned; missing times default to now. Nothing in the
// returned event aliases data, so the caller may reuse the buffer at
// once.
//
// The envelope keys are matched exactly ("id", "type", "source",
// "time", "attrs"); any other top-level key is validated and ignored.
// A repeated key behaves as it would for encoding/json: the last
// scalar wins, a null leaves the field as it was (except that it
// empties attrs), and repeated attrs objects merge.
//
// data is copied once, and the copy is never written: the type, the
// source and every key and string value without escapes are substrings
// of it, not allocations of their own. When data is already what
// MarshalJSONEvent would write for the event (see canonical), the copy
// also becomes the event's EncodedJSON, so an event published in that
// form is pushed in the bytes it arrived in and never encoded again.
func UnmarshalJSONEvent(data []byte) (*Event, error) {
	return unmarshalJSONEvent(string(data), false)
}

// UnmarshalJSONEventString is the engine's decode of a published event:
// UnmarshalJSONEvent of data held in a string, which is immutable, so
// the event keeps data itself as its copy and an event that arrived in a
// text line is not copied out of it again. When data is canonical and
// has at most maxTableAttrs attributes within its first 64 KiB, no map
// is built either: the event keeps where each attribute is in data, Get
// reads it there, and Attrs stays nil until Fields. Any other input is
// decoded into Attrs as UnmarshalJSONEvent decodes it.
func UnmarshalJSONEventString(data string) (*Event, error) {
	return unmarshalJSONEvent(data, true)
}

func unmarshalJSONEvent(data string, table bool) (*Event, error) {
	var scratch [128]byte // keeps short escaped strings off the heap
	// The scanner never writes own.
	own := unsafe.Slice(unsafe.StringData(data), len(data))
	var s jsonScanner // assigned field by field: a literal is built aside and copied in
	s.data, s.buf, s.canonical, s.table = own, scratch[:0], true, table
	e, err := s.event(own)
	if err == nil && s.canonical {
		e.kept = own
		e.enc.Store(&e.kept)
	}
	return e, err
}

// ScanObject reads data, a JSON object of scalars such as an INSERT
// payload, in UnmarshalJSONEvent's single pass: it calls member with
// each key (valid until member returns) and value in document order, a
// repeated key again, values by the attribute rules (PROTOCOL.md
// §2.2.1). An array or object value is checked, skipped and passed with
// ErrNotScalar; a null document has no members. Data that is not JSON
// is an ErrSyntax; a document that is not an object, or a number beyond
// float64's range anywhere in it, fails once all of it is checked.
func ScanObject(data []byte, member func(key []byte, v val.Value, err error)) error {
	// No unescape scratch: an escaped string gets a buffer of its own, so
	// a key outlives the value read after it.
	s := jsonScanner{data: data, numbers: true}
	var err error
	switch c := s.peek(); {
	case c == '{':
		for first := true; err == nil; first = false {
			key, more, kerr := s.member(first)
			if err = kerr; err != nil || !more {
				break
			}
			if c := s.peek(); c == '{' || c == '[' {
				err = s.skipValue(1)
				member(key, val.Null, ErrNotScalar)
			} else if v, verr := s.scalar(nil); verr == nil {
				member(key, v, nil)
			} else if errors.Is(verr, ErrSyntax) {
				err = verr
			} else if s.late == nil { // out of range
				s.late = verr
			}
		}
	case s.literal("null"):
	default:
		if err = s.skipValue(0); s.late == nil {
			s.late = errNotObject
		}
	}
	if s.skipSpace(); err == nil && s.pos < len(s.data) {
		err = s.errf("data after the object")
	}
	if err != nil {
		return err
	}
	return s.late
}

// ScanResult reads reply, a SELECT reply {"columns":[…],"rows":[[…],…]},
// in the same single pass and returns its column names and rows, each
// cell a scalar by the attribute rules, as val.Value.Any gives it. It
// decodes as encoding/json decodes into struct{Columns []string; Rows
// [][]any}, but for two refusals: keys match exactly, so a "Rows" is an
// unknown key, checked and skipped; and an array or object cell is an
// ErrNotScalar. Strings without escapes are substrings of reply, and the
// rows share one array of cells. On an error, columns and rows are
// not to be used.
func ScanResult(reply string) (columns []string, rows [][]any, err error) {
	var scratch [128]byte
	s := jsonScanner{data: unsafe.Slice(unsafe.StringData(reply), len(reply)), buf: scratch[:0]} // only read
	switch c := s.peek(); {
	case c == '{':
		for first := true; err == nil; first = false {
			key, more, kerr := s.member(first)
			if err = kerr; err != nil || !more {
				break
			}
			switch string(key) {
			case "columns":
				columns, err = s.names(columns)
			case "rows":
				rows, err = s.rows()
			default:
				err = s.skipValue(1)
			}
		}
	case !s.literal("null"):
		err = errNotObject
	}
	if s.skipSpace(); err == nil && s.pos < len(s.data) {
		err = s.errf("data after the reply")
	}
	return columns, rows, err
}

// names reads a columns array into the array of cols, as encoding/json
// decodes into a []string: a null keeps the name there.
func (s *jsonScanner) names(cols []string) ([]string, error) {
	n := 0
	null, err := s.array(func() error {
		n++
		cols = slices.Grow(cols[:n-1], 1)[:n]
		if s.literal("null") {
			return nil
		} else if s.peek() != '"' {
			return errNotString
		}
		b, err := s.str()
		cols[n-1] = s.text(s.data, b)
		return err
	})
	if null {
		return nil, nil
	} else if n == 0 {
		return []string{}, err
	}
	return cols, err
}

// rows reads a rows array into one array of rows and one of cells, each
// sized by the '[' or ',' left in the input.
func (s *jsonScanner) rows() ([][]any, error) {
	rows := make([][]any, 0, bytes.Count(s.data[s.pos:], []byte{'['}))
	cells := make([]any, 0, bytes.Count(s.data[s.pos:], []byte{','})+1)
	null, err := s.array(func() error {
		start := len(cells)
		null, err := s.array(func() error {
			v, err := s.scalar(s.data)
			cells = append(cells, v.Any())
			return err
		})
		if rows = append(rows, cells[start:len(cells):len(cells)]); null {
			rows[len(rows)-1] = nil
		}
		return err
	})
	if null {
		return nil, nil
	}
	return rows, err
}

var (
	// ErrSyntax marks input that is not JSON.
	ErrSyntax = errors.New("event: invalid JSON")
	// ErrNotScalar is an attribute or column value that is an array or
	// an object.
	ErrNotScalar = errors.New("unsupported JSON value (nested objects/arrays are not scalar)")
	errNotObject = errors.New("event: want a JSON object")
	errNotArray  = errors.New("event: want a JSON array")
	errNotString = errors.New("event: want a JSON string")
)

// jsonScanner is the single forward pass behind UnmarshalJSONEvent,
// ScanObject and ScanResult: it checks the JSON grammar and builds what
// it reads as it goes, with no intermediate tree.
type jsonScanner struct {
	data []byte
	pos  int
	buf  []byte // unescape scratch for strings with escapes
	// With numbers set, skipValue checks that a number fits a float64, as
	// decoding into an interface does; late keeps ScanObject's first
	// error about well-formed content.
	numbers bool
	late    error
	// strAt is where in data the string str last read starts, -1 when
	// that string had escapes and was unescaped into buf.
	strAt int
	// canonical stays true while everything read so far is as
	// appendJSONEvent writes it: no white space, no escapes, envelope
	// keys in its order and each once, attribute keys strictly
	// ascending, numbers only as it renders them (see event).
	canonical bool
	// With table set, attrs records where each attribute of canonical
	// input is (at, n) instead of filling the map, and attrsEnd where
	// the attrs object closes; event turns that into the event's offset
	// table, or into its map once the input turns out not to fit one.
	table    bool
	at       [maxTableAttrs]struct{ key, val, end int }
	n        int
	attrsEnd int
}

// maxJSONDepth is encoding/json's nesting limit, kept so that the two
// agree on what is too deep.
const maxJSONDepth = 10000

func (s *jsonScanner) errf(format string, args ...any) error {
	return fmt.Errorf("%w: offset %d: %s", ErrSyntax, s.pos, fmt.Sprintf(format, args...))
}

func (s *jsonScanner) skipSpace() {
	// One compare settles the usual case, a token next: white space is
	// below '!'.
	for s.pos < len(s.data) && s.data[s.pos] <= ' ' {
		switch s.data[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
			s.canonical = false
		default:
			return
		}
	}
}

// peek returns the next byte after white space, 0 at the end of input
// (a NUL byte is not the start of any JSON token either).
func (s *jsonScanner) peek() byte {
	s.skipSpace()
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// member steps to the next member of an object: past the '{' when
// first, else past the ',' or closing '}' that follows a value. It
// returns the member's unquoted key (valid until the next string is
// read) with the scanner on the member's value, or more = false once
// the object is closed.
func (s *jsonScanner) member(first bool) (key []byte, more bool, err error) {
	if first {
		s.pos++ // '{'
		if s.peek() == '}' {
			s.pos++
			return nil, false, nil
		}
	} else {
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return nil, false, nil
		default:
			return nil, false, s.errf("want ',' or '}' after an object member")
		}
	}
	if s.peek() != '"' {
		return nil, false, s.errf("want an object key")
	}
	if key, err = s.str(); err != nil {
		return nil, false, err
	}
	if s.peek() != ':' {
		return nil, false, s.errf("want ':' after an object key")
	}
	s.pos++
	s.skipSpace()
	return key, true, nil
}

// The envelope keys as bits, in the order appendJSONEvent writes them.
const (
	seenID = 1 << iota
	seenType
	seenSource
	seenTime
	seenAttrs
)

// event reads the event object; own is as for text. Beside the grammar
// it checks what canonical needs of the envelope: the keys id, type,
// optional source, time and attrs in that order, each once and none
// null; a non-zero id, a non-empty source and a time as it is rendered.
func (s *jsonScanner) event(own []byte) (*Event, error) {
	if s.peek() != '{' {
		return nil, s.errf("want an event object")
	}
	e := &Event{}
	haveTime, timeErr := false, error(nil)
	seen := 0
	for first := true; ; first = false {
		key, more, err := s.member(first)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		bit := 0
		switch string(key) {
		case "id":
			bit = seenID
		case "type":
			bit = seenType
		case "source":
			bit = seenSource
		case "time":
			bit = seenTime
		case "attrs":
			bit = seenAttrs
		}
		// A null leaves the field as it was, except attrs. A key seen
		// already is one the encoder writes before this one, or this one.
		null := bit != 0 && s.literal("null")
		if bit == 0 || seen >= bit || null {
			s.canonical = false
		}
		seen |= bit
		switch {
		case null:
			if bit == seenAttrs {
				e.Attrs, s.n = nil, 0
			}
		case bit == 0:
			if err := s.skipValue(1); err != nil {
				return nil, err
			}
		case bit == seenID:
			lit, plain, err := s.number()
			if err != nil {
				return nil, err
			}
			if plain && lit[0] != '-' && len(lit) < 20 {
				n, _ := digits(lit) // below 10^19, so an int holds it
				e.ID = ID(n)
			} else if id, err := strconv.ParseUint(string(lit), 10, 64); plain && err == nil {
				e.ID = ID(id)
			} else {
				return nil, fmt.Errorf("event: id %s is not an unsigned 64-bit integer", string(lit))
			}
		case bit == seenAttrs:
			if err := s.attrs(e, own); err != nil {
				return nil, err
			}
		default: // type, source or time: a string
			if s.peek() != '"' {
				return nil, fmt.Errorf("event: %s must be a string", string(key))
			}
			b, err := s.str()
			if err != nil {
				return nil, err
			}
			switch bit {
			case seenType:
				e.Type = s.text(own, b)
			case seenSource:
				e.Source = s.text(own, b)
			default:
				// Only the last "time" counts: a later good one (or an
				// empty one, which means now) forgives an earlier bad one.
				haveTime, timeErr = len(b) > 0, nil
				canonical := false
				if haveTime {
					if e.Time, canonical, err = parseTime(b); err != nil {
						timeErr = fmt.Errorf("event: bad time %q: %w", string(b), err)
					}
				}
				s.canonical = s.canonical && canonical
			}
		}
	}
	if s.skipSpace(); s.pos < len(s.data) {
		return nil, s.errf("data after the event object")
	}
	switch {
	case timeErr != nil:
		return nil, timeErr
	case e.Type == "":
		return nil, fmt.Errorf("event: JSON event missing type")
	}
	if seen&^seenSource != seenID|seenType|seenTime|seenAttrs || e.ID == 0 || seen&seenSource != 0 && e.Source == "" {
		s.canonical = false
	}
	if e.ID == 0 {
		e.ID = NextID()
	}
	if !haveTime {
		e.Time = time.Now().UTC()
	}
	if e.Attrs == nil {
		if s.table && s.canonical && s.attrsEnd < 1<<16 {
			for i, a := range s.at[:s.n] {
				e.at[i] = attrAt{key: uint16(a.key), val: uint16(a.val)}
			}
			e.n, e.end = uint8(s.n), uint16(s.attrsEnd)
		} else {
			s.spill(e, own)
		}
	}
	return e, nil
}

// attrs reads an attrs object into e.Attrs, on top of what an earlier
// attrs object put there. Keys not strictly ascending are not canonical.
// With the scanner's table set, the attributes of canonical input are
// recorded in it instead, until one is not canonical or does not fit.
func (s *jsonScanner) attrs(e *Event, own []byte) error {
	if s.peek() != '{' {
		return fmt.Errorf("event: attrs must be an object")
	}
	prev := ""
	for first := true; ; first = false {
		key, more, err := s.member(first)
		if err != nil || !more {
			s.attrsEnd = s.pos - 1
			return err
		}
		keyAt := s.strAt
		name := s.text(own, key)
		if !first && name <= prev {
			s.canonical = false
		}
		prev = name
		valAt := s.pos
		v, err := s.scalar(own)
		if err != nil {
			return fmt.Errorf("event: attr %q: %w", name, err)
		}
		if e.Attrs == nil && s.table && s.canonical && s.n < len(s.at) {
			s.at[s.n].key, s.at[s.n].val, s.at[s.n].end = keyAt, valAt, s.pos
			s.n++
			continue
		}
		if e.Attrs == nil {
			s.spill(e, own)
		}
		e.Attrs[name] = v
	}
}

// spill makes e.Attrs and moves the attributes recorded in the table
// into it. A comma per further attribute sizes it: exact unless a
// string holds one, and capped so that garbage cannot size the map.
func (s *jsonScanner) spill(e *Event, own []byte) {
	e.Attrs = make(map[string]val.Value, min(s.n+bytes.Count(s.data[s.pos:], []byte{','})+1, 64))
	for _, a := range s.at[:s.n] {
		e.Attrs[keptText(own, a.key, a.val-2)] = canonicalValue(own, a.val, a.end)
	}
	s.n = 0
}

// text returns b, the string str last read: its bytes in own, the
// decoder's copy of its input, when it had no escapes, else a copy. It
// never converts b itself, so that the scratch b may be in stays put.
func (s *jsonScanner) text(own, b []byte) string {
	if own == nil || s.strAt < 0 || len(b) == 0 {
		return string(b)
	}
	return unsafe.String(&own[s.strAt], len(b))
}

// parseTime reads an RFC 3339 time, in UTC, as time.Parse would, and
// reports whether b is its RFC3339Nano rendering. The form the encoder
// writes, YYYY-MM-DDTHH:MM:SS, a fraction of up to nine digits and a Z,
// is read in one pass; anything else is not canonical and is left to
// time.Parse.
func parseTime(b []byte) (t time.Time, canonical bool, err error) {
	n := len(b)
	if (n == 20 || 22 <= n && n <= 30 && b[19] == '.') && b[n-1] == 'Z' &&
		b[4] == '-' && b[7] == '-' && b[10] == 'T' && b[13] == ':' && b[16] == ':' {
		year, ok1 := digits(b[0:4])
		month, ok2 := digits(b[5:7])
		day, ok3 := digits(b[8:10])
		hour, ok4 := digits(b[11:13])
		minute, ok5 := digits(b[14:16])
		sec, ok6 := digits(b[17:19])
		nsec, ok7 := 0, true
		if n > 20 {
			nsec, ok7 = digits(b[20 : n-1])
			for ; n < 30; n++ { // pad the fraction to nine digits
				nsec *= 10
			}
		}
		if ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7 &&
			1 <= month && month <= 12 && 1 <= day && day <= daysIn(month, year) && hour < 24 && minute < 60 && sec < 60 {
			// The encoder drops a trailing zero of the fraction.
			return time.Date(year, time.Month(month), day, hour, minute, sec, nsec, time.UTC), len(b) == 20 || b[len(b)-2] != '0', nil
		}
	}
	t, err = time.Parse(time.RFC3339Nano, string(b))
	return t.UTC(), false, err
}

// digits reads b, decimal digits alone, as a number.
func digits(b []byte) (n int, ok bool) {
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int(d)
	}
	return n, true
}

// daysIn is the number of days of the month in the year.
func daysIn(month, year int) int {
	if month == 2 && year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		return 29
	}
	return 28 + int("\x03\x00\x03\x02\x03\x02\x03\x03\x02\x03\x02\x03"[month-1])
}

// literal consumes word ("null", "true", "false") if it is next.
func (s *jsonScanner) literal(word string) bool {
	if len(s.data)-s.pos >= len(word) && s.data[s.pos] == word[0] && string(s.data[s.pos:s.pos+len(word)]) == word {
		s.pos += len(word)
		return true
	}
	return false
}

// scalar reads one attribute value; own is as for text. Arrays and
// objects are refused: an attribute is a scalar. Only a number the
// encoder would render the same way, an integer of at most 15
// characters that is not -0, is canonical.
func (s *jsonScanner) scalar(own []byte) (val.Value, error) {
	switch c := s.peek(); {
	case c == '"':
		b, err := s.str()
		if err != nil {
			return val.Null, err
		}
		return val.String(s.text(own, b)), nil
	case c == '-' || '0' <= c && c <= '9':
		lit, plain, err := s.number()
		if err != nil {
			return val.Null, err
		}
		if plain && len(lit) <= 15 {
			// At most 15 digits: below 2^53, so exactly the int the float
			// path would give, without the float.
			neg := lit[0] == '-'
			if neg {
				lit = lit[1:]
			}
			var n int64
			for _, d := range lit {
				n = n*10 + int64(d-'0')
			}
			if neg {
				n = -n
				if n == 0 {
					s.canonical = false
				}
			}
			return val.Int(n), nil
		}
		s.canonical = false
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return val.Null, err
		}
		if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			return val.Int(int64(f)), nil
		}
		return val.Float(f), nil
	case s.literal("true"):
		return val.Bool(true), nil
	case s.literal("false"):
		return val.Bool(false), nil
	case s.literal("null"):
		return val.Null, nil
	case c == '{' || c == '[':
		return val.Null, ErrNotScalar
	}
	return val.Null, s.errf("want a value")
}

// skipValue checks the grammar of one value of any shape and discards
// it; depth counts the containers already open around it.
func (s *jsonScanner) skipValue(depth int) error {
	switch c := s.peek(); {
	case c == '"':
		_, err := s.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		lit, plain, err := s.number()
		if err == nil && s.numbers && s.late == nil && (!plain || len(lit) > 15) {
			_, s.late = strconv.ParseFloat(string(lit), 64)
		}
		return err
	case s.literal("true"), s.literal("false"), s.literal("null"):
		return nil
	case c == '{' || c == '[':
		if depth++; depth > maxJSONDepth {
			return s.errf("exceeded max depth")
		}
		if c == '{' {
			for first := true; ; first = false {
				if _, more, err := s.member(first); err != nil || !more {
					return err
				}
				if err := s.skipValue(depth); err != nil {
					return err
				}
			}
		}
		_, err := s.array(func() error { return s.skipValue(depth) })
		return err
	}
	return s.errf("want a value")
}

// array reads an array, calling elem with the scanner on each element,
// or a null, and reports which. Any other value is an errNotArray.
func (s *jsonScanner) array(elem func() error) (null bool, err error) {
	if s.literal("null") {
		return true, nil
	} else if s.peek() != '[' {
		return false, errNotArray
	}
	s.pos++
	for more := s.peek() != ']'; more; {
		if err := elem(); err != nil {
			return false, err
		}
		if c := s.peek(); c != ',' && c != ']' {
			return false, s.errf("want ',' or ']' after an array element")
		} else if more = c == ','; more {
			s.pos++
		}
	}
	s.pos++ // ']'
	return false, nil
}

// number reads one number literal; plain reports digits with at most a
// leading minus (no fraction, no exponent).
func (s *jsonScanner) number() (lit []byte, plain bool, err error) {
	start := s.pos
	run := func() bool { // a run of digits, read in a local
		from, i := s.pos, s.pos
		for i < len(s.data) && s.data[i]-'0' <= 9 {
			i++
		}
		s.pos = i
		return i > from
	}
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	intStart := s.pos
	if !run() || s.data[intStart] == '0' && s.pos > intStart+1 {
		return nil, false, s.errf("bad number")
	}
	plain = true
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		if plain = false; !run() {
			return nil, false, s.errf("bad number")
		}
	}
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		if plain = false; !run() {
			return nil, false, s.errf("bad number")
		}
	}
	return s.data[start:s.pos], plain, nil
}

// str reads the string whose opening quote is next and returns it
// unquoted: a slice of the input when that is already the answer (no
// escapes, valid UTF-8; strAt is then where it starts), else of the
// scratch buffer — either way valid only until the next str. Invalid
// UTF-8 and unpaired surrogate escapes become U+FFFD, as encoding/json
// has them.
func (s *jsonScanner) str() ([]byte, error) {
	start := s.pos + 1
	i, ascii := start, true
	// Eight bytes at a time while none of them ends a run of plain
	// ASCII: the flag byte of each test is set for a '"', a '\\', a
	// control character, or (w itself) a byte beyond ASCII. A borrow can
	// flag bytes above a flagged one, never below it, so the lowest flag
	// is the first byte that ends the run.
	for ; i+8 <= len(s.data); i += 8 {
		const lo, hi = 0x0101010101010101, 0x8080808080808080
		w := binary.LittleEndian.Uint64(s.data[i:])
		quote, slash := w^(lo*'"'), w^(lo*'\\')
		if f := (w | (w-lo*0x20)&^w | (quote-lo)&^quote | (slash-lo)&^slash) & hi; f != 0 {
			i += bits.TrailingZeros64(f) >> 3
			break
		}
	}
	for i < len(s.data) {
		c := s.data[i]
		if c == '"' {
			if !ascii && !utf8.Valid(s.data[start:i]) {
				i = start
				break
			}
			s.pos, s.strAt = i+1, start
			return s.data[start:i], nil
		}
		if c == '\\' || c < 0x20 {
			if !ascii {
				i = start // the loop below checks the bytes beyond ASCII
			}
			break
		}
		ascii = ascii && c < utf8.RuneSelf
		i++
	}
	// The scratch is not grown in place (a store through s would move
	// the whole scanner to the heap): a long escaped string allocates.
	s.strAt, s.canonical = -1, false
	buf := append(s.buf[:0], s.data[start:i]...)
	for i < len(s.data) {
		c := s.data[i]
		switch {
		case c == '"':
			s.pos = i + 1
			return buf, nil
		case c < 0x20:
			s.pos = i
			return nil, s.errf("control character in a string")
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(s.data[i:])
			buf = utf8.AppendRune(buf, r)
			i += size
		case c != '\\':
			buf = append(buf, c)
			i++
		default:
			if i+1 >= len(s.data) {
				s.pos = i
				return nil, s.errf("unfinished escape")
			}
			esc := s.data[i+1]
			i += 2
			switch esc {
			case '"', '\\', '/':
				buf = append(buf, esc)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r := hex4(s.data[i:])
				if r < 0 {
					s.pos = i
					return nil, s.errf("bad \\u escape")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(s.data) && s.data[i] == '\\' && s.data[i+1] == 'u' {
						r2 = hex4(s.data[i+2:])
					}
					// A valid pair consumes both escapes; half of one
					// becomes U+FFFD and the next escape stands alone.
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						i += 6
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				s.pos = i - 1
				return nil, s.errf("bad escape")
			}
		}
	}
	s.pos = len(s.data)
	return nil, s.errf("unfinished string")
}

// hex4 decodes four hex digits, -1 if b does not start with four.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
