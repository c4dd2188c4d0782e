package expr

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"eventdb/internal/val"
)

func TestStandingKeepsOnlyAtoms(t *testing.T) {
	for src, flat := range map[string]bool{
		"sym = 'SYM0042' AND qty >= 400": true,
		"qty >= 1017 AND qty < 1018":     true,
		"'a' < x AND y BETWEEN 1 AND 5":  true,
		"desk = 7":                       true,
		"cid = a.cid":                    false,
		"x = 1 AND x != 2":               false,
		"x NOT BETWEEN 1 AND 5":          false,
		"true":                           false,
	} {
		p := mustCompile(src)
		st := p.Standing()
		if got := st.Root == nil; got != flat {
			t.Errorf("%q: standing without a tree = %v, want %v", src, got, flat)
		}
		if !flat && st != p {
			t.Errorf("%q: a standing condition that keeps its tree must be the compiled one", src)
		}
		if st.Source != src || len(st.Atoms) != len(p.Atoms) {
			t.Errorf("%q: standing = %+v", src, st)
		}
	}
}

// TestDetachKeepsNoText: a detached condition matches as its tree does
// after the text it was compiled from is overwritten, keeps no source
// where its atoms are all of it, and is its source's again otherwise.
func TestDetachKeepsNoText(t *testing.T) {
	events := []MapResolver{
		{"sym": val.String("SYM0042"), "qty": val.Int(400), "x": val.Int(3), "y": val.Int(2)},
		{"sym": val.String("SYM0043"), "qty": val.Int(1017), "x": val.String("b")},
		{},
	}
	for src, flat := range map[string]bool{
		"sym = 'SYM0042' AND qty >= 400": true,
		"qty >= 1017 AND qty < 1018":     true,
		"'a' < x AND y BETWEEN 1 AND 5":  true,
		"sym = 'SYM0043' OR x = 'b'":     false,
		"lower(sym) = 'sym0042'":         false,
	} {
		buf := []byte(src)
		d := mustCompile(unsafe.String(&buf[0], len(buf))).Detach()
		for i := range buf {
			buf[i] = '#'
		}
		if (d.Root == nil) != flat || flat && d.Source != "" || !flat && d.Source != src {
			t.Errorf("%q: detached = %+v", src, d)
		}
		tree := mustCompile(src)
		for _, ev := range events {
			want, wantErr := tree.Match(ev)
			got, gotErr := d.Match(ev)
			if got != want || errText(gotErr) != errText(wantErr) {
				t.Errorf("%q on %v: detached (%v, %v), tree (%v, %v)", src, ev, got, gotErr, want, wantErr)
			}
		}
	}
}

// FuzzStandingMatchesTree holds a standing condition's atoms, and its
// detached form, to its parse tree: on every condition and every value of x (missing, NULL,
// or one of each kind), both match alike and fail with the same error.
func FuzzStandingMatchesTree(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, seed := range []struct {
		src  string
		kind uint8
		n    int64
		fl   float64
		s    string
	}{
		{"x = 1", 0, 0, 0, ""},                     // missing
		{"x = 1 AND x >= 0", 1, 0, 0, ""},          // NULL
		{"x >= 3 AND x < 5", 2, 4, 0, ""},          // int
		{"x = 1.5 AND x > 1", 3, 0, 1.5, ""},       // float
		{"x = 0 AND x <= 0", 3, 0, negZero, ""},    // −0
		{"x = 5 AND x >= 0", 3, 0, math.NaN(), ""}, // NaN
		{"x = 'ab' AND x < 'b'", 4, 0, 0, "ab"},    // string
		{"x = true", 5, 1, 0, ""},                  // bool
		{"x > 5 AND x = 'a'", 6, 1e18, 0, ""},      // time
		{"x >= 'a' AND x < 5", 2, 3, 0, ""},        // mixed-kind literals
		{"x < 5 AND x >= 'a'", 4, 0, 0, "q"},       // the other operand order
		{"5 < x AND 'a' <= x", 2, 7, 0, ""},        // literal op field
		{"x BETWEEN 1 AND 'z'", 2, 2, 0, ""},       // BETWEEN, incomparable high bound
		{"x BETWEEN NULL AND 'z'", 2, 2, 0, ""},    // BETWEEN, NULL bound
		{"x = NULL AND x > 1", 2, 2, 0, ""},        // x = NULL
		{"x = 1 AND y = 2 AND x < 0", 2, 1, 0, ""}, // missing y, then false
		{"y = 1 AND x > 'a'", 2, 1, 0, ""},         // NULL, then an error
		{"x = 'ab' AND x >= 1", 7, 0, 0, "ab"},     // bytes
	} {
		f.Add(seed.src, seed.kind, seed.n, seed.fl, seed.s)
	}
	f.Fuzz(func(t *testing.T, src string, kind uint8, n int64, fl float64, s string) {
		p, err := Compile(src)
		if err != nil {
			return
		}
		r := MapResolver{}
		switch kind % 8 {
		case 1:
			r["x"] = val.Null
		case 2:
			r["x"] = val.Int(n)
		case 3:
			r["x"] = val.Float(fl)
		case 4:
			r["x"] = val.String(s)
		case 5:
			r["x"] = val.Bool(n&1 == 1)
		case 6:
			r["x"] = val.Time(time.Unix(0, n).UTC())
		case 7:
			r["x"] = val.Bytes([]byte(s))
		}
		want, wantErr := p.Match(r)
		got, gotErr := p.Standing().Match(r)
		if got != want || errText(gotErr) != errText(wantErr) {
			t.Fatalf("%q with x=%v: standing (%v, %v), tree (%v, %v)", src, r["x"], got, gotErr, want, wantErr)
		}
		got, gotErr = p.Detach().Match(r)
		if got != want || errText(gotErr) != errText(wantErr) {
			t.Fatalf("%q with x=%v: detached (%v, %v), tree (%v, %v)", src, r["x"], got, gotErr, want, wantErr)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
