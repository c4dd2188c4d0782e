package expr

import (
	"slices"
	"testing"

	"eventdb/internal/val"
)

func TestAnalyzeEqualityExtraction(t *testing.T) {
	eqs, _ := mustCompile("sym = 'ACME' AND price > 100 AND venue = 'NYSE'").Indexable()
	if len(eqs) != 2 {
		t.Fatalf("eqs = %v, want 2", eqs)
	}
	found := map[string]val.Value{}
	for _, e := range eqs {
		found[e.Field] = e.Value
	}
	if v, ok := found["sym"]; !ok || !val.Equal(v, val.String("ACME")) {
		t.Errorf("sym pred = %v", v)
	}
	if v, ok := found["venue"]; !ok || !val.Equal(v, val.String("NYSE")) {
		t.Errorf("venue pred = %v", v)
	}
}

func TestAnalyzeLiteralOnLeft(t *testing.T) {
	eqs, rs := mustCompile("'ACME' = sym AND 100 < price").Indexable()
	if len(eqs) != 1 || eqs[0].Field != "sym" {
		t.Fatalf("eqs = %v", eqs)
	}
	if len(rs) != 1 {
		t.Fatalf("ranges = %v", rs)
	}
	r := rs[0]
	if r.Field != "price" || r.LoUnbounded || !r.LoOpen {
		t.Errorf("flipped range pred wrong: %+v", r)
	}
	if !val.Equal(r.Lo, val.Int(100)) {
		t.Errorf("lo = %v", r.Lo)
	}
}

func TestAnalyzeRangeMerging(t *testing.T) {
	_, rs := mustCompile("price >= 10 AND price < 20").Indexable()
	if len(rs) != 1 {
		t.Fatalf("ranges = %+v, want merged single", rs)
	}
	r := rs[0]
	if r.LoOpen || !r.HiOpen {
		t.Errorf("openness wrong: %+v", r)
	}
	lo, hi, ok := r.NumericBounds()
	if !ok || lo != 10 || hi != 20 {
		t.Errorf("NumericBounds = %v %v %v", lo, hi, ok)
	}
}

func TestAnalyzeBetween(t *testing.T) {
	_, rs := mustCompile("x BETWEEN 1 AND 5").Indexable()
	if len(rs) != 1 {
		t.Fatalf("ranges = %+v", rs)
	}
	r := rs[0]
	if lo, hi, ok := r.NumericBounds(); !ok || lo != 1 || hi != 5 || r.LoOpen || r.HiOpen {
		t.Errorf("between bounds wrong: %+v", r)
	}
	// NOT BETWEEN must not be extracted.
	if p2 := mustCompile("x NOT BETWEEN 1 AND 5"); len(p2.Atoms) != 0 {
		t.Errorf("NOT BETWEEN extracted: %+v", p2.Atoms)
	}
}

func TestAnalyzeConservative(t *testing.T) {
	// Disjunctions, function applications and field-field comparisons
	// must NOT be extracted (they are not top-level indexable conjuncts).
	for _, src := range []string{
		"sym = 'A' OR sym = 'B'",
		"lower(sym) = 'a'",
		"a = b",
		"NOT (sym = 'A')",
		"sym != 'A'",
	} {
		if p := mustCompile(src); len(p.Atoms) != 0 {
			t.Errorf("%q: extracted atoms %v", src, p.Atoms)
		}
	}
}

func TestAnalyzeMixedConjunction(t *testing.T) {
	// Indexable and non-indexable conjuncts mix; extraction keeps only
	// the indexable ones and the full predicate still works.
	p := mustCompile("sym = 'A' AND lower(venue) = 'nyse' AND price >= 5")
	if eqs, rs := p.Indexable(); len(eqs) != 1 || len(rs) != 1 {
		t.Fatalf("extraction = %v / %v", eqs, rs)
	}
	if p.Standing() != p {
		t.Error("a predicate with a conjunct that is no atom must keep its tree")
	}
	ok, err := p.Match(ctx("sym", "A", "venue", "NYSE", "price", 7))
	if err != nil || !ok {
		t.Errorf("full predicate match = %v, %v", ok, err)
	}
}

func TestConjuncts(t *testing.T) {
	n := MustParse("a = 1 AND b = 2 AND (c = 3 OR d = 4)")
	cs := Conjuncts(n)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts = %d, want 3", len(cs))
	}
	// OR subtree stays intact.
	if b, ok := cs[2].(*Binary); !ok || b.Op != OpOr {
		t.Errorf("third conjunct should be OR subtree, got %v", cs[2])
	}
}

func TestNumericBoundsNonNumeric(t *testing.T) {
	_, rs := mustCompile("x >= 'a'").Indexable()
	r := rs[0]
	if _, _, ok := r.NumericBounds(); ok {
		t.Error("string bounds should not be numeric")
	}
}

func TestFieldsInFirstAppearanceOrder(t *testing.T) {
	got := Fields(MustParse("a = 1 AND b > 2 AND contains(c, 'x') AND a < 9"))
	if !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Errorf("Fields = %v", got)
	}
}
