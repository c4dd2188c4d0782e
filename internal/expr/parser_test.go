package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"eventdb/internal/val"
)

func TestParseValid(t *testing.T) {
	// Each case must parse; String() must re-parse to an identical tree.
	cases := []string{
		"1",
		"1.5",
		"-3",
		"'it''s'",
		"true",
		"FALSE",
		"null",
		"price",
		"$type",
		"a.b.c",
		"price > 100",
		"price >= 100 AND qty < 50",
		"a = 1 OR b = 2 AND c = 3",
		"NOT (a = 1)",
		"a + b * c - d / e % f",
		"price BETWEEN 10 AND 20",
		"price NOT BETWEEN 10 AND 20",
		"sym IN ('A', 'B', 'C')",
		"sym NOT IN ('A')",
		"name LIKE 'A%'",
		"name NOT LIKE '_b%'",
		"x IS NULL",
		"x IS NOT NULL",
		"abs(x) > 2",
		"coalesce(a, b, 0) = 0",
		"lower(name) = 'acme'",
		"substr(name, 1, 3) = 'abc'",
		"length(name) > 2",
		"round(price, 2) = 1.25",
		"greatest(a, b, c) < least(d, e)",
		"if(a > 0, 'pos', 'neg') = 'pos'",
		"((a))",
		"1e3 > x",
		"2.5E-2 < y",
		"-x + 3",
	}
	for _, src := range cases {
		n, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		rt, err := Parse(n.String())
		if err != nil {
			t.Errorf("re-Parse(%q -> %q): %v", src, n.String(), err)
			continue
		}
		if rt.String() != n.String() {
			t.Errorf("round-trip mismatch: %q -> %q -> %q", src, n.String(), rt.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"1 +",
		"(1",
		"1)",
		"a = ",
		"a BETWEEN 1",
		"a BETWEEN 1 2",
		"a IN ()",
		"a IN (1",
		"a IS",
		"a IS BOB",
		"nosuchfunc(1)",
		"abs()",
		"abs(1, 2)",
		"substr(a)",
		"'unterminated",
		"a @ b",
		"1. ",
		"a NOT b",
		"NOT",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// AND binds tighter than OR.
	n := MustParse("a = 1 OR b = 2 AND c = 3")
	b, ok := n.(*Binary)
	if !ok || b.Op != OpOr {
		t.Fatalf("top node should be OR, got %T %v", n, n)
	}
	// * binds tighter than +.
	n = MustParse("1 + 2 * 3")
	b = n.(*Binary)
	if b.Op != OpAdd {
		t.Fatalf("top should be +, got %v", b.Op)
	}
	if inner := b.R.(*Binary); inner.Op != OpMul {
		t.Fatalf("right child should be *, got %v", inner.Op)
	}
	// Comparison binds looser than arithmetic.
	n = MustParse("a + 1 > b * 2")
	b = n.(*Binary)
	if b.Op != OpGt {
		t.Fatalf("top should be >, got %v", b.Op)
	}
}

func TestParseLiterals(t *testing.T) {
	if lit := MustParse("42").(*Literal); !val.Equal(lit.Val, val.Int(42)) {
		t.Errorf("int literal = %v", lit.Val)
	}
	if lit := MustParse("-42").(*Literal); !val.Equal(lit.Val, val.Int(-42)) {
		t.Errorf("negative literal folding = %v", lit.Val)
	}
	if lit := MustParse("2.5").(*Literal); !val.Equal(lit.Val, val.Float(2.5)) {
		t.Errorf("float literal = %v", lit.Val)
	}
	if lit := MustParse("'a''b'").(*Literal); !val.Equal(lit.Val, val.String("a'b")) {
		t.Errorf("string escape = %v", lit.Val)
	}
	if lit := MustParse("99999999999999999999").(*Literal); lit.Val.Kind() != val.KindFloat {
		t.Errorf("overflowing int should become float, got %s", lit.Val.Kind())
	}
	if lit := MustParse("null").(*Literal); !lit.Val.IsNull() {
		t.Errorf("null literal = %v", lit.Val)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	for _, src := range []string{"a and b", "a AND b", "a And b"} {
		n, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if b := n.(*Binary); b.Op != OpAnd {
			t.Errorf("Parse(%q) top op = %v", src, b.Op)
		}
	}
}

func TestFieldsExtraction(t *testing.T) {
	n := MustParse("a > 1 AND lower(b) = 'x' AND a < c + d")
	got := Fields(n)
	want := []string{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("Fields = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Fields[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestStringRoundTripQuick(t *testing.T) {
	// Generate random small expressions by assembling from parts; ensure
	// String() always re-parses to a fixed point.
	parts := []string{
		"a", "b", "price", "1", "2.5", "'s'", "true", "null",
	}
	ops := []string{"+", "-", "*", "=", ">", "<=", "AND", "OR"}
	f := func(i1, i2, o uint8) bool {
		l := parts[int(i1)%len(parts)]
		r := parts[int(i2)%len(parts)]
		op := ops[int(o)%len(ops)]
		src := l + " " + op + " " + r
		n, err := Parse(src)
		if err != nil {
			return false
		}
		rt, err := Parse(n.String())
		return err == nil && rt.String() == n.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDeepNesting(t *testing.T) {
	src := strings.Repeat("(", 200) + "1" + strings.Repeat(")", 200)
	if _, err := Parse(src); err != nil {
		t.Errorf("deep nesting rejected: %v", err)
	}
}

// MustParse is Parse that panics on error, for tests and literals.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}
