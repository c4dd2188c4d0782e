package event

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"

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
// the Event and its attribute map as it reads (UnmarshalJSONEvent); it
// runs once per published message on the server, and once per distinct
// pushed body on a client connection — the client decodes per body, not
// per subscription. The encoding/json decoder it replaced lives on in
// the tests as the oracle the scanner is fuzzed against.

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

// UnmarshalJSONEvent parses a JSON event produced by a foreign system.
// JSON numbers that are integral become int values; others become floats.
// Missing IDs are assigned; missing times default to now. Nothing in the
// returned event aliases data, so the caller may reuse the buffer at
// once.
//
// The envelope keys are matched exactly ("id", "type", "source",
// "time", "attrs"); any other top-level key is validated and ignored.
// A repeated key behaves as it would for encoding/json: the last
// scalar wins, a null leaves the field as it was (except that it
// empties attrs), and repeated attrs objects merge.
func UnmarshalJSONEvent(data []byte) (*Event, error) {
	var scratch [128]byte // keeps short escaped strings off the heap
	s := jsonScanner{data: data, buf: scratch[:0]}
	return s.event()
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
			} else if v, verr := s.scalar(); verr == nil {
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

var (
	// ErrSyntax marks input that is not JSON.
	ErrSyntax = errors.New("event: invalid JSON")
	// ErrNotScalar is an attribute or column value that is an array or
	// an object.
	ErrNotScalar = errors.New("unsupported JSON value (nested objects/arrays are not scalar)")
	errNotObject = errors.New("event: want a JSON object")
)

// jsonScanner is the single forward pass behind UnmarshalJSONEvent and
// ScanObject: it checks the JSON grammar and fills the Event (or hands
// out the members) as it goes, with no intermediate tree.
type jsonScanner struct {
	data []byte
	pos  int
	buf  []byte // unescape scratch for strings with escapes
	// With numbers set, skipValue checks that a number fits a float64, as
	// decoding into an interface does; late keeps ScanObject's first
	// error about well-formed content.
	numbers bool
	late    error
}

// maxJSONDepth is encoding/json's nesting limit, kept so that the two
// agree on what is too deep.
const maxJSONDepth = 10000

func (s *jsonScanner) errf(format string, args ...any) error {
	return fmt.Errorf("%w: offset %d: %s", ErrSyntax, s.pos, fmt.Sprintf(format, args...))
}

func (s *jsonScanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
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

func (s *jsonScanner) event() (*Event, error) {
	if s.peek() != '{' {
		return nil, s.errf("want an event object")
	}
	e := &Event{}
	haveTime, timeErr := false, error(nil)
	for first := true; ; first = false {
		key, more, err := s.member(first)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		switch string(key) {
		case "id":
			if s.literal("null") {
				continue
			}
			lit, plain, err := s.number()
			if err != nil {
				return nil, err
			}
			id, err := strconv.ParseUint(string(lit), 10, 64)
			if !plain || err != nil {
				return nil, fmt.Errorf("event: id %s is not an unsigned 64-bit integer", string(lit))
			}
			e.ID = ID(id)
		case "type":
			if b, err := s.optString("type"); err != nil {
				return nil, err
			} else if b != nil {
				e.Type = string(b)
			}
		case "source":
			if b, err := s.optString("source"); err != nil {
				return nil, err
			} else if b != nil {
				e.Source = string(b)
			}
		case "time":
			b, err := s.optString("time")
			if err != nil {
				return nil, err
			}
			if b == nil {
				continue
			}
			// Only the last "time" counts: a later good one (or an empty
			// one, which means now) forgives an earlier bad one.
			haveTime, timeErr = len(b) > 0, nil
			if haveTime {
				t, err := time.Parse(time.RFC3339Nano, string(b))
				if err != nil {
					timeErr = fmt.Errorf("event: bad time %q: %w", string(b), err)
				}
				e.Time = t.UTC()
			}
		case "attrs":
			if s.literal("null") {
				e.Attrs = nil
				continue
			}
			if err := s.attrs(e); err != nil {
				return nil, err
			}
		default:
			if err := s.skipValue(1); err != nil {
				return nil, err
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
	if e.ID == 0 {
		e.ID = NextID()
	}
	if !haveTime {
		e.Time = time.Now().UTC()
	}
	if e.Attrs == nil {
		e.Attrs = map[string]val.Value{}
	}
	return e, nil
}

// attrs reads an attrs object into e.Attrs, on top of what an earlier
// attrs object put there.
func (s *jsonScanner) attrs(e *Event) error {
	if s.peek() != '{' {
		return fmt.Errorf("event: attrs must be an object")
	}
	if e.Attrs == nil {
		// A comma per further attribute: exact unless a string holds
		// one, and capped so that garbage cannot size the map.
		e.Attrs = make(map[string]val.Value, min(bytes.Count(s.data[s.pos:], []byte{','})+1, 64))
	}
	for first := true; ; first = false {
		key, more, err := s.member(first)
		if err != nil || !more {
			return err
		}
		name := string(key)
		v, err := s.scalar()
		if err != nil {
			return fmt.Errorf("event: attr %q: %w", name, err)
		}
		e.Attrs[name] = v
	}
}

// literal consumes word ("null", "true", "false") if it is next.
func (s *jsonScanner) literal(word string) bool {
	if len(s.data)-s.pos >= len(word) && string(s.data[s.pos:s.pos+len(word)]) == word {
		s.pos += len(word)
		return true
	}
	return false
}

// optString reads an envelope field that must be a string or null; a
// null (which leaves the field as it was) returns nil, a string its
// non-nil bytes.
func (s *jsonScanner) optString(field string) ([]byte, error) {
	if s.literal("null") {
		return nil, nil
	}
	if s.peek() != '"' {
		return nil, fmt.Errorf("event: %s must be a string", field)
	}
	return s.str()
}

// scalar reads one attribute value. Arrays and objects are refused: an
// attribute is a scalar.
func (s *jsonScanner) scalar() (val.Value, error) {
	switch c := s.peek(); {
	case c == '"':
		b, err := s.str()
		if err != nil {
			return val.Null, err
		}
		return val.String(string(b)), nil
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
			}
			return val.Int(n), nil
		}
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
		s.pos++ // '['
		if s.peek() == ']' {
			s.pos++
			return nil
		}
		for {
			if err := s.skipValue(depth); err != nil {
				return err
			}
			switch s.peek() {
			case ',':
				s.pos++
			case ']':
				s.pos++
				return nil
			default:
				return s.errf("want ',' or ']' after an array element")
			}
		}
	}
	return s.errf("want a value")
}

// number reads one number literal; plain reports digits with at most a
// leading minus (no fraction, no exponent).
func (s *jsonScanner) number() (lit []byte, plain bool, err error) {
	start := s.pos
	digits := func() bool {
		from := s.pos
		for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
			s.pos++
		}
		return s.pos > from
	}
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	intStart := s.pos
	if !digits() || s.data[intStart] == '0' && s.pos > intStart+1 {
		return nil, false, s.errf("bad number")
	}
	plain = true
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		if plain = false; !digits() {
			return nil, false, s.errf("bad number")
		}
	}
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		if plain = false; !digits() {
			return nil, false, s.errf("bad number")
		}
	}
	return s.data[start:s.pos], plain, nil
}

// str reads the string whose opening quote is next and returns it
// unquoted: a slice of the input when that is already the answer (no
// escapes, valid UTF-8), else of the scratch buffer — either way valid
// only until the next str. Invalid UTF-8 and unpaired surrogate
// escapes become U+FFFD, as encoding/json has them.
func (s *jsonScanner) str() ([]byte, error) {
	start := s.pos + 1
	i, ascii := start, true
	// Eight bytes at a time while none of them ends a run of plain
	// ASCII: the flag byte of each test is set for a '"', a '\\', a
	// control character, or (w itself) a byte beyond ASCII.
	for ; i+8 <= len(s.data); i += 8 {
		const lo, hi = 0x0101010101010101, 0x8080808080808080
		w := binary.LittleEndian.Uint64(s.data[i:])
		quote, slash := w^(lo*'"'), w^(lo*'\\')
		if (w|(w-lo*0x20)&^w|(quote-lo)&^quote|(slash-lo)&^slash)&hi != 0 {
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
			s.pos = i + 1
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
