package columnar

import (
	"bytes"
	"math"
	"strings"

	"eventdb/internal/expr"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// FilterProg is a predicate whose top-level conjuncts are all atoms
// (expr.Atom: field op literal) compiled to one vector kernel per
// atom. Each kernel narrows a batch's selection vector in place to the
// rows its atom holds for, so a later atom tests only the rows the
// earlier ones kept. A row with a NULL in an atom's column fails it, as
// only a definite true admits a row (SQL WHERE). Evaluating a batch
// allocates nothing.
//
// Any other conjunct — OR, NOT, IN, !=, IS [NOT] NULL, a bare bool
// field, LIKE, arithmetic, field against field — leaves the predicate
// to the row path, and so does an ordering across kinds, which is an
// error row-side.
type FilterProg struct {
	atoms []kernel
	none  bool // some atom holds for no row
	need  []bool
}

// kernel is one atom over one column: a row is kept when the column
// compares to the literal with a verdict res admits. Which literal
// field is set depends on the column kind; an int column against a
// float literal compares in float space (f64 and fromInt).
type kernel struct {
	ci      int
	kind    val.Kind
	op      expr.BinaryOp
	res     [3]bool // verdict per compare outcome: less, equal, greater
	lo, hi  int64   // int, time and bool: the values in [lo, hi] hold
	f64     float64
	fromInt bool
	str     string
	bts     []byte

	seg  *Segment // string =: the segment the code is for
	code int64    // str's code in seg's dictionary, -1 if absent
}

// CompileFilter compiles p against the table schema. ok=false means p
// has a conjunct that is not an atom, or one that errors row-side, and
// the caller must use row-at-a-time evaluation.
func CompileFilter(p *expr.Predicate, schema *storage.Schema) (*FilterProg, bool) {
	if p.Standing().Root != nil {
		return nil, false
	}
	prog := &FilterProg{atoms: make([]kernel, 0, len(p.Atoms)), need: make([]bool, len(schema.Columns))}
	for i := range p.Atoms {
		k, none, ok := compileAtom(&p.Atoms[i], schema)
		switch {
		case !ok:
			return nil, false
		case none:
			prog.none = true
		default:
			prog.need[k.ci] = true
			prog.atoms = append(prog.atoms, k)
		}
	}
	return prog, true
}

// compileAtom builds a's kernel. none reports that a holds for no row:
// its field is unknown or its literal NULL (both compare NULL), or it
// is = across kinds. ok=false is an ordering across kinds.
func compileAtom(a *expr.Atom, schema *storage.Schema) (k kernel, none, ok bool) {
	ci := schema.ColIndex(a.Field)
	if ci < 0 || a.Lit.IsNull() {
		return k, true, true
	}
	k = kernel{ci: ci, kind: schema.Columns[ci].Kind, op: a.Op, res: verdicts(a.Op)}
	var n int64
	switch k.kind {
	case val.KindInt:
		n, ok = a.Lit.AsInt()
		if !ok {
			k.f64, ok = a.Lit.AsFloat()
			k.fromInt = true
		}
	case val.KindFloat:
		k.f64, ok = a.Lit.AsFloat()
	case val.KindTime:
		t, isTime := a.Lit.AsTime()
		n, ok = t.UnixNano(), isTime
	case val.KindBool:
		var b bool
		if b, ok = a.Lit.AsBool(); b {
			n = 1
		}
	case val.KindString:
		k.str, ok = a.Lit.AsString()
	case val.KindBytes:
		k.bts, ok = a.Lit.AsBytes()
	}
	if !ok {
		return k, a.Op == expr.OpEq, a.Op == expr.OpEq
	}
	k.lo, k.hi = n, n
	switch a.Op {
	case expr.OpLt:
		k.lo, k.hi, none = math.MinInt64, n-1, n == math.MinInt64
	case expr.OpLe:
		k.lo = math.MinInt64
	case expr.OpGt:
		k.lo, k.hi, none = n+1, math.MaxInt64, n == math.MaxInt64
	case expr.OpGe:
		k.hi = math.MaxInt64
	}
	return k, none, true // < MinInt64 or > MaxInt64: n±1 wraps round
}

// verdicts is whether op holds for each three-way compare outcome of
// field against literal, indexed by cmp+1.
func verdicts(op expr.BinaryOp) [3]bool {
	switch op {
	case expr.OpEq:
		return [3]bool{false, true, false}
	case expr.OpLt:
		return [3]bool{true, false, false}
	case expr.OpLe:
		return [3]bool{true, true, false}
	case expr.OpGt:
		return [3]bool{false, false, true}
	}
	return [3]bool{false, true, true} // OpGe
}

// NeedCols returns, per schema column, whether the filter reads it.
// The slice is owned by the program; callers must not mutate it.
func (p *FilterProg) NeedCols() []bool { return p.need }

// Filter narrows sel, positions of batch b, to the rows the predicate
// accepts, in place, and returns it.
func (p *FilterProg) Filter(b *Batch, sel []int32) []int32 {
	if p.none {
		return sel[:0]
	}
	for i := range p.atoms {
		sel = p.atoms[i].filter(b, sel)
	}
	return sel
}

func (k *kernel) filter(b *Batch, sel []int32) []int32 {
	v, out := b.Vecs[k.ci], sel[:0]
	switch {
	case k.kind == val.KindFloat || k.fromInt:
		for _, i := range sel {
			var x float64
			if k.fromInt {
				x = float64(v.I64[i])
			} else {
				x = v.F64[i]
			}
			c := 1 // NaN on either side compares equal, as in val.Compare
			if x < k.f64 {
				c = 0
			} else if x > k.f64 {
				c = 2
			}
			if !v.Null[i] && k.res[c] {
				out = append(out, i)
			}
		}
	case k.kind == val.KindString && k.op == expr.OpEq:
		if b.Seg != k.seg { // one dictionary probe per segment
			k.seg, k.code = b.Seg, -1
			for c, s := range v.Dict {
				if s == k.str {
					k.code = int64(c)
					break
				}
			}
		}
		for _, i := range sel {
			if !v.Null[i] && int64(v.Code[i]) == k.code {
				out = append(out, i)
			}
		}
	case k.kind == val.KindString:
		for _, i := range sel {
			if !v.Null[i] && k.res[strings.Compare(v.Dict[v.Code[i]], k.str)+1] {
				out = append(out, i)
			}
		}
	case k.kind == val.KindBytes:
		for _, i := range sel {
			if !v.Null[i] && k.res[bytes.Compare(v.Bytes[i], k.bts)+1] {
				out = append(out, i)
			}
		}
	default: // int, time and bool as int64s
		for _, i := range sel {
			if x := v.I64[i]; !v.Null[i] && x >= k.lo && x <= k.hi {
				out = append(out, i)
			}
		}
	}
	return out
}
