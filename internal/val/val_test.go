package val

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int",
		KindFloat: "float", KindString: "string", KindTime: "time",
		KindBytes: "bytes",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"int", KindInt, true},
		{"INTEGER", KindInt, true},
		{"bigint", KindInt, true},
		{"float", KindFloat, true},
		{"double", KindFloat, true},
		{"string", KindString, true},
		{"TEXT", KindString, true},
		{"bool", KindBool, true},
		{"timestamp", KindTime, true},
		{"blob", KindBytes, true},
		{"nope", KindNull, false},
	} {
		got, err := ParseKind(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseKind(%q) succeeded, want error", tc.in)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	now := time.Date(2026, 6, 10, 12, 0, 0, 123, time.UTC)
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("Bool(true) round-trip failed")
	}
	if n, ok := Int(-42).AsInt(); !ok || n != -42 {
		t.Error("Int(-42) round-trip failed")
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Error("Float(2.5) round-trip failed")
	}
	if s, ok := String("hi").AsString(); !ok || s != "hi" {
		t.Error("String round-trip failed")
	}
	if tm, ok := Time(now).AsTime(); !ok || !tm.Equal(now) {
		t.Errorf("Time round-trip failed: got %v want %v", tm, now)
	}
	if b, ok := Bytes([]byte{1, 2}).AsBytes(); !ok || len(b) != 2 {
		t.Error("Bytes round-trip failed")
	}
	// Int coerces through AsFloat.
	if f, ok := Int(3).AsFloat(); !ok || f != 3.0 {
		t.Error("Int.AsFloat coercion failed")
	}
	// Wrong-kind accessors report !ok.
	if _, ok := Int(1).AsString(); ok {
		t.Error("Int.AsString should fail")
	}
	if _, ok := String("x").AsInt(); ok {
		t.Error("String.AsInt should fail")
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull misreports")
	}
}

func TestFromAnyRoundTrip(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Nanosecond)
	for _, in := range []any{nil, true, 7, int64(-9), uint32(4), 3.25, "s", []byte{9}, now} {
		v, err := FromAny(in)
		if err != nil {
			t.Fatalf("FromAny(%v): %v", in, err)
		}
		back := v.Any()
		switch want := in.(type) {
		case nil:
			if back != nil {
				t.Errorf("Any() = %v, want nil", back)
			}
		case int:
			if back.(int64) != int64(want) {
				t.Errorf("int round-trip: %v", back)
			}
		case uint32:
			if back.(int64) != int64(want) {
				t.Errorf("uint32 round-trip: %v", back)
			}
		case time.Time:
			if !back.(time.Time).Equal(want) {
				t.Errorf("time round-trip: %v vs %v", back, want)
			}
		}
	}
	if _, err := FromAny(struct{}{}); err == nil {
		t.Error("FromAny(struct{}{}) should fail")
	}
	if _, err := FromAny(uint64(math.MaxUint64)); err == nil {
		t.Error("FromAny(MaxUint64) should fail")
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{Bool(true), Int(1), Float(-0.5), String("x"), Bytes([]byte{0}), Time(time.Now())}
	falsy := []Value{Null, Bool(false), Int(0), Float(0), Float(math.NaN()), String(""), Bytes(nil)}
	for _, v := range truthy {
		if !v.Truthy() {
			t.Errorf("%v should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Truthy() {
			t.Errorf("%v should be falsy", v)
		}
	}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.5), -1},
		{Float(2.0), Int(2), 0},
		{String("a"), String("b"), -1},
		{Bool(false), Bool(true), -1},
		{Null, Int(5), -1},
		{Int(5), Null, 1},
		{Null, Null, 0},
		{Bytes([]byte{1}), Bytes([]byte{1, 0}), -1},
		{Time(time.Unix(1, 0)), Time(time.Unix(2, 0)), -1},
	} {
		got, err := Compare(tc.a, tc.b)
		if err != nil || got != tc.want {
			t.Errorf("Compare(%v,%v) = %d,%v; want %d", tc.a, tc.b, got, err, tc.want)
		}
	}
	if _, err := Compare(Int(1), String("1")); err == nil {
		t.Error("Compare(int,string) should fail")
	}
	if _, err := Compare(Bool(true), Time(time.Now())); err == nil {
		t.Error("Compare(bool,time) should fail")
	}
}

func TestEqualAndLess(t *testing.T) {
	if !Equal(Int(2), Float(2)) {
		t.Error("Equal(2, 2.0) should hold")
	}
	if Equal(Int(1), String("1")) {
		t.Error("Equal across incomparable kinds should be false")
	}
	// Less is a total order: kind ranks separate incomparable kinds.
	if !Less(Bool(true), Int(0)) {
		t.Error("bool ranks below numerics")
	}
	if !Less(Int(10), String("")) {
		t.Error("numerics rank below strings")
	}
	if !Less(Null, Bool(false)) {
		t.Error("null ranks lowest")
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := mustV(Add(Int(2), Int(3))); !Equal(got, Int(5)) {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustV(Add(Int(2), Float(0.5))); !Equal(got, Float(2.5)) {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := mustV(Add(String("ab"), String("cd"))); !Equal(got, String("abcd")) {
		t.Errorf("string concat = %v", got)
	}
	if got := mustV(Sub(Int(2), Int(3))); !Equal(got, Int(-1)) {
		t.Errorf("2-3 = %v", got)
	}
	if got := mustV(Mul(Float(2), Float(4))); !Equal(got, Float(8)) {
		t.Errorf("2*4 = %v", got)
	}
	if got := mustV(Div(Int(7), Int(2))); !Equal(got, Int(3)) {
		t.Errorf("7/2 = %v (integer division)", got)
	}
	if got := mustV(Div(Float(7), Int(2))); !Equal(got, Float(3.5)) {
		t.Errorf("7.0/2 = %v", got)
	}
	if got := mustV(Mod(Int(7), Int(2))); !Equal(got, Int(1)) {
		t.Errorf("7%%2 = %v", got)
	}
	if _, err := Div(Int(1), Int(0)); err == nil {
		t.Error("div by zero should fail")
	}
	if _, err := Mod(Int(1), Int(0)); err == nil {
		t.Error("mod by zero should fail")
	}
	if _, err := Mod(Float(1), Float(1)); err == nil {
		t.Error("float mod should fail")
	}
	if _, err := Add(Int(1), Bool(true)); err == nil {
		t.Error("int+bool should fail")
	}
	// Null propagates.
	if got := mustV(Add(Null, Int(1))); !got.IsNull() {
		t.Errorf("null+1 = %v", got)
	}
	if got := mustV(Neg(Int(4))); !Equal(got, Int(-4)) {
		t.Errorf("-4 = %v", got)
	}
	if got := mustV(Neg(Float(4))); !Equal(got, Float(-4)) {
		t.Errorf("-4.0 = %v", got)
	}
	if _, err := Neg(String("x")); err == nil {
		t.Error("neg string should fail")
	}
}

func TestStringRendering(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Null, "null"},
		{Bool(true), "true"},
		{Int(-3), "-3"},
		{Float(1.5), "1.5"},
		{String("a\"b"), `"a\"b"`},
		{Bytes([]byte{0xAB}), "x'ab'"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
	if !strings.Contains(Time(time.Unix(0, 0)).String(), "1970") {
		t.Error("time rendering should be RFC3339")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	now := time.Date(2026, 1, 2, 3, 4, 5, 678, time.UTC)
	values := []Value{
		Null, Bool(true), Bool(false), Int(0), Int(-1), Int(math.MaxInt64),
		Int(math.MinInt64), Float(0), Float(-2.5), Float(math.Inf(1)),
		String(""), String("héllo"), Time(now), Bytes(nil), Bytes([]byte{0, 1, 255}),
	}
	var buf []byte
	for _, v := range values {
		buf = AppendBinary(buf, v)
	}
	pos := 0
	for i, want := range values {
		got, n, err := DecodeBinary(buf[pos:])
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		pos += n
		if got.Kind() != want.Kind() || (!got.IsNull() && !Equal(got, want)) {
			t.Errorf("round-trip %d: got %v want %v", i, got, want)
		}
	}
	if pos != len(buf) {
		t.Errorf("decoded %d of %d bytes", pos, len(buf))
	}
}

// TestPackedRoundTrip packs values back to back, as a stored table row
// is, and unpacks them from the string with DecodeBinary: every kind
// and edge comes back bit for bit, and a string or bytes payload is a
// view of the packed string rather than a copy.
func TestPackedRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    Value
	}{
		{"null", Null},
		{"true", Bool(true)},
		{"false", Bool(false)},
		{"min int", Int(math.MinInt64)},
		{"max int", Int(math.MaxInt64)},
		{"zero int", Int(0)},
		{"negative zero", Float(math.Copysign(0, -1))},
		{"NaN", Float(math.NaN())},
		{"+Inf", Float(math.Inf(1))},
		{"-Inf", Float(math.Inf(-1))},
		{"time with nanoseconds", Time(time.Date(2026, 1, 2, 3, 4, 5, 678901234, time.UTC))},
		{"empty string", String("")},
		{"multi-byte string", String("héllo, 世界")},
		{"invalid UTF-8 string", String("a\xff\xfeb")},
		{"empty bytes", Bytes([]byte{})},
		{"nil bytes", Bytes(nil)},
		{"bytes", Bytes([]byte{0, 1, 255})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A neighbour on each side, so the value is unpacked from the
			// middle of a row image.
			packed := string(AppendBinary(AppendBinary(AppendBinary(nil, Int(7)), tc.v), String("tail")))
			_, n, err := DecodeBinary(packed)
			if err != nil {
				t.Fatal(err)
			}
			got, m, err := DecodeBinary(packed[n:])
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.v {
				t.Errorf("unpacked %v (%#v), want %v (%#v)", got, got, tc.v, tc.v)
			}
			if want := len(AppendBinary(nil, tc.v)); m != want {
				t.Errorf("consumed %d bytes, want %d", m, want)
			}
			if last, _, err := DecodeBinary(packed[n+m:]); err != nil || last != String("tail") {
				t.Errorf("next value = %v, %v", last, err)
			}
			if len(got.s) > 0 {
				start := uintptr(unsafe.Pointer(unsafe.StringData(packed)))
				p := uintptr(unsafe.Pointer(unsafe.StringData(got.s)))
				if p < start || p >= start+uintptr(len(packed)) {
					t.Error("payload was copied out of the packed string")
				}
			}
		})
	}
}

// FuzzDecodeBinaryString holds DecodeBinary's string instantiation to
// its []byte one: the same inputs are accepted, with the same value and
// the same length consumed. Its varint reader is held to encoding/binary.
func FuzzDecodeBinaryString(f *testing.F) {
	for _, v := range []Value{Null, Bool(true), Int(-1), Int(math.MaxInt64), Float(math.NaN()),
		String("héllo"), Time(time.Unix(1, 2)), Bytes([]byte{0, 255})} {
		f.Add(AppendBinary(nil, v))
	}
	f.Add([]byte{byte(KindInt), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02})
	f.Add([]byte{byte(KindString), 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		bv, bn, berr := DecodeBinary(data)
		sv, sn, serr := DecodeBinary(string(data))
		if (berr == nil) != (serr == nil) {
			t.Fatalf("[]byte err %v, string err %v", berr, serr)
		}
		if bv != sv || bn != sn {
			t.Fatalf("[]byte %#v/%d, string %#v/%d", bv, bn, sv, sn)
		}
		wx, wn := binary.Uvarint(data)
		if x, n := uvarint(string(data)); x != wx || n != wn {
			t.Fatalf("uvarint = %d/%d, encoding/binary %d/%d", x, n, wx, wn)
		}
	})
}

func TestDecodeBinaryErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(numKinds)},
		{byte(KindBool)},
		{byte(KindFloat), 1, 2},
		{byte(KindString), 5, 'a'},
	}
	for i, buf := range cases {
		if _, _, err := DecodeBinary(buf); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, b []byte, pickKind uint8) bool {
		var v Value
		switch pickKind % 5 {
		case 0:
			v = Int(i)
		case 1:
			v = Float(fl)
		case 2:
			v = String(s)
		case 3:
			v = Bytes(b)
		case 4:
			v = Bool(i%2 == 0)
		}
		enc := AppendBinary(nil, v)
		got, n, err := DecodeBinary(enc)
		if err != nil || n != len(enc) {
			return false
		}
		if v.Kind() == KindFloat && math.IsNaN(fl) {
			gf, _ := got.AsFloat()
			return math.IsNaN(gf)
		}
		return Equal(got, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAppendKeyOrderPreserving(t *testing.T) {
	// Same-kind values: bytewise key order must agree with Less.
	ints := []int64{math.MinInt64, -1000, -1, 0, 1, 7, 1 << 40, math.MaxInt64}
	for i := 0; i < len(ints); i++ {
		for j := 0; j < len(ints); j++ {
			a, b := Int(ints[i]), Int(ints[j])
			ka := AppendKey(nil, a)
			kb := AppendKey(nil, b)
			if Less(a, b) != (string(ka) < string(kb)) {
				t.Errorf("key order mismatch for %d vs %d", ints[i], ints[j])
			}
		}
	}
	strs := []string{"", "a", "a\x00b", "a\x00\x00", "ab", "b"}
	for i := 0; i < len(strs); i++ {
		for j := 0; j < len(strs); j++ {
			a, b := String(strs[i]), String(strs[j])
			ka := AppendKey(nil, a)
			kb := AppendKey(nil, b)
			if Less(a, b) != (string(ka) < string(kb)) {
				t.Errorf("key order mismatch for %q vs %q", strs[i], strs[j])
			}
		}
	}
}

func TestAppendKeyPrefixSafety(t *testing.T) {
	// Composite keys: "a"+"b" must not collide with "ab"+"".
	k1 := AppendKey(AppendKey(nil, String("a")), String("b"))
	k2 := AppendKey(AppendKey(nil, String("ab")), String(""))
	if string(k1) == string(k2) {
		t.Error("composite keys collide")
	}
}

func TestCompareQuickSymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		c1, err1 := Compare(Int(a), Int(b))
		c2, err2 := Compare(Int(b), Int(a))
		return err1 == nil && err2 == nil && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValueIs32Bytes pins the size a map[string]Value slot is built
// from: a fourth word (the slice header Bytes once had to itself) turns
// the 416-byte eight-slot group behind every decoded event into 640.
func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("sizeof(Value) = %d, want 32", got)
	}
}

// TestBytesIsAView checks the bytes payload is the caller's memory, not
// a copy, whatever its length, and that empty payloads stay harmless.
func TestBytesIsAView(t *testing.T) {
	src := []byte{1, 2, 3}
	got, ok := Bytes(src).AsBytes()
	if !ok || len(got) != 3 || &got[0] != &src[0] {
		t.Errorf("AsBytes = %v (ok %v), want a view of the source slice", got, ok)
	}
	for _, empty := range [][]byte{nil, {}} {
		if b, ok := Bytes(empty).AsBytes(); !ok || len(b) != 0 {
			t.Errorf("Bytes(%#v).AsBytes() = %v, %v", empty, b, ok)
		}
	}
	if String("ab").Kind() == Bytes([]byte("ab")).Kind() {
		t.Error("a bytes value must not be mistaken for a string")
	}
}
