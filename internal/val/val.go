// Package val defines the typed scalar value model shared by every layer
// of eventdb: event attributes, table columns, expression operands and
// wire messages are all built from Value.
//
// A Value is an immutable tagged union over the seven kinds the engine
// understands (null, bool, int, float, string, time, bytes). Numeric
// comparisons and arithmetic coerce int and float toward float, matching
// the usual SQL behaviour; every other cross-kind operation is an error
// rather than a silent coercion.
package val

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime
	KindBytes
	numKinds
)

// String returns the lower-case name of the kind as used in schemas and
// error messages.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTime:
		return "time"
	case KindBytes:
		return "bytes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a schema type name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "null":
		return KindNull, nil
	case "bool", "boolean":
		return KindBool, nil
	case "int", "integer", "bigint":
		return KindInt, nil
	case "float", "double", "real":
		return KindFloat, nil
	case "string", "text", "varchar":
		return KindString, nil
	case "time", "timestamp":
		return KindTime, nil
	case "bytes", "blob":
		return KindBytes, nil
	default:
		return KindNull, fmt.Errorf("val: unknown kind %q", s)
	}
}

// Value is an immutable typed scalar. The zero Value is Null.
//
// It is 32 bytes: a bytes payload shares the string field (see Bytes)
// instead of carrying a slice header of its own. An event's attributes
// are a map[string]Value, one is built for every event decoded on
// either side of the wire, and a map's smallest unit is eight slots —
// 416 bytes at this size, 640 with the slice header.
type Value struct {
	kind Kind
	n    int64  // bool (0/1), int, float bits, time (unix nanos)
	s    string // string payload, or the bytes payload viewed as a string
}

// Null is the SQL-style null value.
var Null = Value{}

// Bool returns a boolean Value.
func Bool(v bool) Value {
	var n int64
	if v {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// Int returns an integer Value.
func Int(v int64) Value { return Value{kind: KindInt, n: v} }

// Float returns a floating-point Value.
func Float(v float64) Value {
	return Value{kind: KindFloat, n: int64(math.Float64bits(v))}
}

// String returns a string Value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Time returns a time Value with nanosecond precision in UTC.
func Time(v time.Time) Value {
	return Value{kind: KindTime, n: v.UnixNano()}
}

// Bytes returns a byte-slice Value. The slice is not copied; callers must
// not mutate it afterwards.
func Bytes(v []byte) Value {
	return Value{kind: KindBytes, s: unsafe.String(unsafe.SliceData(v), len(v))}
}

// bytes is the bytes payload: the same memory Bytes was given, which is
// why AsBytes' result is read-only like everything else about a Value.
func (v Value) bytes() []byte { return unsafe.Slice(unsafe.StringData(v.s), len(v.s)) }

// FromAny converts a native Go value to a Value. It accepts the Go types
// produced by encoding/json plus the obvious fixed-width numerics, which
// makes it the bridge for "messages created in foreign systems".
func FromAny(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Null, nil
	case Value:
		return x, nil
	case bool:
		return Bool(x), nil
	case int:
		return Int(int64(x)), nil
	case int8:
		return Int(int64(x)), nil
	case int16:
		return Int(int64(x)), nil
	case int32:
		return Int(int64(x)), nil
	case int64:
		return Int(x), nil
	case uint:
		return Int(int64(x)), nil
	case uint8:
		return Int(int64(x)), nil
	case uint16:
		return Int(int64(x)), nil
	case uint32:
		return Int(int64(x)), nil
	case uint64:
		if x > math.MaxInt64 {
			return Null, fmt.Errorf("val: uint64 %d overflows int", x)
		}
		return Int(int64(x)), nil
	case float32:
		return Float(float64(x)), nil
	case float64:
		return Float(x), nil
	case string:
		return String(x), nil
	case []byte:
		return Bytes(x), nil
	case time.Time:
		return Time(x), nil
	default:
		return Null, fmt.Errorf("val: unsupported Go type %T", v)
	}
}

// MustFromAny is FromAny that panics on error; intended for literals in
// tests and examples.
func MustFromAny(v any) Value {
	out, err := FromAny(v)
	if err != nil {
		panic(err)
	}
	return out
}

// Kind reports the dynamic kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is Null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; ok is false if the kind differs.
func (v Value) AsBool() (b, ok bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.n != 0, true
}

// AsInt returns the integer payload; ok is false if the kind differs.
func (v Value) AsInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return v.n, true
}

// AsFloat returns the float payload. Ints coerce; ok is false otherwise.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(uint64(v.n)), true
	case KindInt:
		return float64(v.n), true
	default:
		return 0, false
	}
}

// AsString returns the string payload; ok is false if the kind differs.
func (v Value) AsString() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.s, true
}

// AsTime returns the time payload in UTC; ok is false if the kind differs.
func (v Value) AsTime() (time.Time, bool) {
	if v.kind != KindTime {
		return time.Time{}, false
	}
	return time.Unix(0, v.n).UTC(), true
}

// AsBytes returns the bytes payload; ok is false if the kind differs.
func (v Value) AsBytes() ([]byte, bool) {
	if v.kind != KindBytes {
		return nil, false
	}
	return v.bytes(), true
}

// Any converts the Value back to a native Go value (inverse of FromAny).
func (v Value) Any() any {
	switch v.kind {
	case KindNull:
		return nil
	case KindBool:
		return v.n != 0
	case KindInt:
		return v.n
	case KindFloat:
		return math.Float64frombits(uint64(v.n))
	case KindString:
		return v.s
	case KindTime:
		return time.Unix(0, v.n).UTC()
	case KindBytes:
		return v.bytes()
	default:
		return nil
	}
}

// IsNumeric reports whether the value participates in numeric coercion.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for humans: strings are quoted, times are
// RFC 3339, bytes are hex.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(uint64(v.n)), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindTime:
		return time.Unix(0, v.n).UTC().Format(time.RFC3339Nano)
	case KindBytes:
		return fmt.Sprintf("x'%x'", v.s)
	default:
		return "<invalid>"
	}
}

// ErrIncomparable is wrapped by Compare when the two kinds cannot be
// ordered against each other.
var ErrIncomparable = fmt.Errorf("val: incomparable kinds")

// Compare orders two values: -1, 0, or +1. Int and float compare
// numerically against each other; all other mixed-kind comparisons fail
// with ErrIncomparable. Null compares equal to Null and less than
// everything else (total order for index use).
func Compare(a, b Value) (int, error) {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0, nil
		case a.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.kind == KindInt && b.kind == KindInt {
			return cmpOrdered(a.n, b.n), nil
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return cmpOrdered(af, bf), nil
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("%w: %s vs %s", ErrIncomparable, a.kind, b.kind)
	}
	switch a.kind {
	case KindBool, KindTime:
		return cmpOrdered(a.n, b.n), nil
	case KindString:
		return strings.Compare(a.s, b.s), nil
	case KindBytes:
		return strings.Compare(a.s, b.s), nil
	default:
		return 0, fmt.Errorf("%w: %s", ErrIncomparable, a.kind)
	}
}

func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values are equal under Compare semantics;
// incomparable kinds are simply unequal.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Less is a total order over all values for index and sort use: values
// order first by a canonical kind rank (numerics share a rank), then by
// Compare.
func Less(a, b Value) bool {
	ra, rb := rank(a.kind), rank(b.kind)
	if ra != rb {
		return ra < rb
	}
	c, err := Compare(a, b)
	if err != nil {
		return a.kind < b.kind
	}
	return c < 0
}

func rank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindTime:
		return 3
	case KindString:
		return 4
	case KindBytes:
		return 5
	default:
		return 6
	}
}

// Arithmetic errors.
var (
	ErrNotNumeric = fmt.Errorf("val: operand is not numeric")
	ErrDivByZero  = fmt.Errorf("val: division by zero")
)

// Add returns a+b with int/float coercion; any null operand yields Null.
func Add(a, b Value) (Value, error) { return arith(a, b, '+') }

// Sub returns a-b with int/float coercion; any null operand yields Null.
func Sub(a, b Value) (Value, error) { return arith(a, b, '-') }

// Mul returns a*b with int/float coercion; any null operand yields Null.
func Mul(a, b Value) (Value, error) { return arith(a, b, '*') }

// Div returns a/b; integer division when both are ints. Division by zero
// is an error. Any null operand yields Null.
func Div(a, b Value) (Value, error) { return arith(a, b, '/') }

// Mod returns a%b for integers only. Any null operand yields Null.
func Mod(a, b Value) (Value, error) { return arith(a, b, '%') }

func arith(a, b Value, op byte) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	// String concatenation rides on '+'.
	if op == '+' && a.kind == KindString && b.kind == KindString {
		return String(a.s + b.s), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null, fmt.Errorf("%w: %s %c %s", ErrNotNumeric, a.kind, op, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		x, y := a.n, b.n
		switch op {
		case '+':
			return Int(x + y), nil
		case '-':
			return Int(x - y), nil
		case '*':
			return Int(x * y), nil
		case '/':
			if y == 0 {
				return Null, ErrDivByZero
			}
			return Int(x / y), nil
		case '%':
			if y == 0 {
				return Null, ErrDivByZero
			}
			return Int(x % y), nil
		}
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	switch op {
	case '+':
		return Float(x + y), nil
	case '-':
		return Float(x - y), nil
	case '*':
		return Float(x * y), nil
	case '/':
		if y == 0 {
			return Null, ErrDivByZero
		}
		return Float(x / y), nil
	case '%':
		return Null, fmt.Errorf("%w: %% requires integers", ErrNotNumeric)
	}
	return Null, fmt.Errorf("val: unknown operator %c", op)
}

// Neg returns the arithmetic negation of a numeric value.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		return Int(-a.n), nil
	case KindFloat:
		f, _ := a.AsFloat()
		return Float(-f), nil
	default:
		return Null, fmt.Errorf("%w: -%s", ErrNotNumeric, a.kind)
	}
}
