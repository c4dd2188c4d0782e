package expr

import (
	"testing"
	"testing/quick"

	"eventdb/internal/val"
)

func ctx(pairs ...any) MapResolver {
	m := MapResolver{}
	for i := 0; i+1 < len(pairs); i += 2 {
		m[pairs[i].(string)] = val.MustFromAny(pairs[i+1])
	}
	return m
}

func evalStr(t *testing.T, src string, r Resolver) val.Value {
	t.Helper()
	v, err := Eval(MustParse(src), r)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestEvalArithmetic(t *testing.T) {
	r := ctx("a", 10, "b", 3, "f", 2.5)
	cases := []struct {
		src  string
		want val.Value
	}{
		{"a + b", val.Int(13)},
		{"a - b", val.Int(7)},
		{"a * b", val.Int(30)},
		{"a / b", val.Int(3)},
		{"a % b", val.Int(1)},
		{"a + f", val.Float(12.5)},
		{"-a", val.Int(-10)},
		{"a + b * 2", val.Int(16)},
		{"(a + b) * 2", val.Int(26)},
		{"'x' + 'y'", val.String("xy")},
	}
	for _, tc := range cases {
		if got := evalStr(t, tc.src, r); !val.Equal(got, tc.want) {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
	if _, err := Eval(MustParse("a / 0"), r); err == nil {
		t.Error("div by zero should error")
	}
	if _, err := Eval(MustParse("a + 'x'"), r); err == nil {
		t.Error("int + string should error")
	}
}

func TestEvalComparisons(t *testing.T) {
	r := ctx("price", 101.5, "qty", 300, "sym", "ACME")
	trueCases := []string{
		"price > 100",
		"price >= 101.5",
		"qty <= 300",
		"qty = 300",
		"sym = 'ACME'",
		"sym != 'X'",
		"price BETWEEN 100 AND 102",
		"qty NOT BETWEEN 400 AND 500",
		"sym IN ('X', 'ACME')",
		"sym NOT IN ('X', 'Y')",
		"sym LIKE 'AC%'",
		"sym LIKE '_CME'",
		"sym NOT LIKE 'B%'",
		"missing IS NULL",
		"sym IS NOT NULL",
		"price > 100 AND qty > 200",
		"price < 100 OR qty > 200",
		"NOT (price < 100)",
		"qty = 300 AND (sym = 'ACME' OR sym = 'X')",
		"1 = 1.0",
		"'a' != 1", // incomparable kinds are unequal
	}
	for _, src := range trueCases {
		got := evalStr(t, src, r)
		if b, ok := got.AsBool(); !ok || !b {
			t.Errorf("%q = %v, want true", src, got)
		}
	}
	falseCases := []string{
		"price < 100",
		"sym = 'X'",
		"sym LIKE 'X%'",
		"sym IN ('X')",
		"price BETWEEN 0 AND 1",
		"'a' = 1",
	}
	for _, src := range falseCases {
		got := evalStr(t, src, r)
		if b, ok := got.AsBool(); !ok || b {
			t.Errorf("%q = %v, want false", src, got)
		}
	}
	// Ordering across incomparable kinds errors.
	if _, err := Eval(MustParse("sym > 1"), r); err == nil {
		t.Error("string > int should error")
	}
}

func TestEvalThreeValuedLogic(t *testing.T) {
	r := ctx("x", 1) // n is absent → NULL
	nullCases := []string{
		"n = 1",
		"n != 1",
		"n > 1",
		"n + 1 = 2",
		"n BETWEEN 0 AND 2",
		"x BETWEEN NULL AND 'z'", // a NULL bound decides before the other compares
		"n LIKE 'a%'",
		"NOT (n = 1)",
		"n = 1 AND x = 1", // NULL AND TRUE = NULL
		"n = 1 OR x = 2",  // NULL OR FALSE = NULL
		"x IN (1, 2) AND n = 1",
		"n IN (1)",
		"1 IN (n)", // no match, null present → NULL
	}
	for _, src := range nullCases {
		if got := evalStr(t, src, r); !got.IsNull() {
			t.Errorf("%q = %v, want NULL", src, got)
		}
	}
	// Kleene shortcuts: FALSE dominates AND, TRUE dominates OR.
	definite := []struct {
		src  string
		want bool
	}{
		{"n = 1 AND x = 2", false}, // NULL AND FALSE = FALSE
		{"x = 2 AND n = 1", false},
		{"n = 1 OR x = 1", true}, // NULL OR TRUE = TRUE
		{"x = 1 OR n = 1", true},
		{"n IS NULL", true},
		{"n IS NOT NULL", false},
		{"coalesce(n, 7) = 7", true},
	}
	for _, tc := range definite {
		got := evalStr(t, tc.src, r)
		b, ok := got.AsBool()
		if !ok || b != tc.want {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestEvalFunctions(t *testing.T) {
	r := ctx("s", "Hello World", "x", -4, "f", 2.7)
	cases := []struct {
		src  string
		want val.Value
	}{
		{"abs(x)", val.Int(4)},
		{"abs(-2.5)", val.Float(2.5)},
		{"floor(f)", val.Float(2)},
		{"ceil(f)", val.Float(3)},
		{"sqrt(16)", val.Float(4)},
		{"round(2.567, 2)", val.Float(2.57)},
		{"round(2.4)", val.Float(2)},
		{"lower(s)", val.String("hello world")},
		{"upper(s)", val.String("HELLO WORLD")},
		{"trim('  x  ')", val.String("x")},
		{"length(s)", val.Int(11)},
		{"substr(s, 1, 5)", val.String("Hello")},
		{"substr(s, 7)", val.String("World")},
		{"substr(s, 0, 2)", val.String("He")},
		{"substr(s, 100)", val.String("")},
		{"contains(s, 'World')", val.Bool(true)},
		{"starts_with(s, 'He')", val.Bool(true)},
		{"ends_with(s, 'ld')", val.Bool(true)},
		{"coalesce(nothing, 'd')", val.String("d")},
		{"least(3, 1, 2)", val.Int(1)},
		{"greatest(3, 1, 2)", val.Int(3)},
		{"if(x < 0, 'neg', 'pos')", val.String("neg")},
	}
	for _, tc := range cases {
		if got := evalStr(t, tc.src, r); !val.Equal(got, tc.want) {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
	// Type errors inside functions propagate.
	if _, err := Eval(MustParse("abs('x')"), r); err == nil {
		t.Error("abs(string) should error")
	}
	if _, err := Eval(MustParse("length(1)"), r); err == nil {
		t.Error("length(int) should error")
	}
	// Null propagation through functions.
	if got := evalStr(t, "abs(nothing)", r); !got.IsNull() {
		t.Errorf("abs(NULL) = %v", got)
	}
	if got := evalStr(t, "lower(nothing)", r); !got.IsNull() {
		t.Errorf("lower(NULL) = %v", got)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"", "", true},
		{"", "%", true},
		{"a", "", false},
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "a_c", true},
		{"abc", "a_", false},
		{"abc", "____", false},
		{"abc", "___", true},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "%iss%ippi", true},
		{"mississippi", "%iss%ippix", false},
		{"abc", "%%%", true},
		{"a%b", "a%b", true}, // literal % matched by wildcard
	}
	for _, tc := range cases {
		if got := likeMatch(tc.s, tc.pat); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tc.s, tc.pat, got, tc.want)
		}
	}
}

func TestLikeMatchQuickAgainstOracle(t *testing.T) {
	// Oracle: recursive reference implementation.
	var oracle func(s, p string) bool
	oracle = func(s, p string) bool {
		if p == "" {
			return s == ""
		}
		switch p[0] {
		case '%':
			for i := 0; i <= len(s); i++ {
				if oracle(s[i:], p[1:]) {
					return true
				}
			}
			return false
		case '_':
			return s != "" && oracle(s[1:], p[1:])
		default:
			return s != "" && s[0] == p[0] && oracle(s[1:], p[1:])
		}
	}
	alphabet := []byte("ab%_")
	f := func(sRaw, pRaw []byte) bool {
		s := make([]byte, 0, len(sRaw)%8)
		for i := 0; i < len(sRaw)%8; i++ {
			s = append(s, "ab"[int(sRaw[i])%2])
		}
		p := make([]byte, 0, len(pRaw)%8)
		for i := 0; i < len(pRaw)%8; i++ {
			p = append(p, alphabet[int(pRaw[i])%4])
		}
		return likeMatch(string(s), string(p)) == oracle(string(s), string(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestPredicateMatch(t *testing.T) {
	p := mustCompile("price > 100 AND sym = 'ACME'")
	ok, err := p.Match(ctx("price", 101, "sym", "ACME"))
	if err != nil || !ok {
		t.Errorf("Match = %v, %v; want true", ok, err)
	}
	ok, err = p.Match(ctx("price", 99, "sym", "ACME"))
	if err != nil || ok {
		t.Errorf("Match = %v, %v; want false", ok, err)
	}
	// NULL result does not match.
	ok, err = p.Match(ctx("sym", "ACME"))
	if err != nil || ok {
		t.Errorf("Match with missing field = %v, %v; want false", ok, err)
	}
	// Non-boolean predicate doesn't match but is not an error either.
	p2 := mustCompile("price + 1")
	ok, err = p2.Match(ctx("price", 1))
	if err != nil || ok {
		t.Errorf("non-boolean Match = %v, %v; want false, nil", ok, err)
	}
}

func TestEvalDeterministicQuick(t *testing.T) {
	p := mustCompile("a * 3 + b > 10 AND (s LIKE 'x%' OR a IN (1, 2, 3))")
	f := func(a, b int16, pick bool) bool {
		s := "y"
		if pick {
			s = "xyz"
		}
		r := ctx("a", int64(a), "b", int64(b), "s", s)
		v1, err1 := Eval(p.Root, r)
		v2, err2 := Eval(p.Root, r)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return val.Equal(v1, v2) || (v1.IsNull() && v2.IsNull())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEvalAgainstEventResolver(t *testing.T) {
	// Events implement Resolver; check envelope pseudo-fields work.
	// (Indirect dependency check kept in this package via a tiny fake.)
	r := MapResolver{
		"$type": val.String("trade"),
		"price": val.Float(10),
	}
	ok, err := mustCompile("$type = 'trade' AND price >= 10").Match(r)
	if err != nil || !ok {
		t.Errorf("envelope predicate = %v, %v", ok, err)
	}
}

// mustCompile is Compile that panics on error.
func mustCompile(src string) *Predicate {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}
