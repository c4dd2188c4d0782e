package columnar

import (
	"bytes"
	"strings"

	"eventdb/internal/expr"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// FilterProg is an expr predicate compiled to vector kernels: one
// fnode per AST node, each evaluating a whole batch of column values
// into a tri-state mask. Masks use Kleene three-valued logic exactly
// as expr.Eval does — 1 true, 0 false, -1 NULL — and only 1 admits a
// row (SQL WHERE semantics). All scratch space is allocated at
// compile time, so evaluating a batch performs zero allocations.
//
// Compilation is conservative: any construct whose row-path semantics
// the kernels cannot reproduce bit-for-bit (LIKE, function calls,
// arithmetic, field-vs-field comparisons, orderings over incomparable
// kinds — which must surface an error, not a mask) fails to compile
// and the caller falls back to the row path.
type FilterProg struct {
	root fnode
	need []bool
}

// CompileFilter compiles root against the table schema. ok=false
// means the expression is not kernel-representable and the caller
// must use row-at-a-time evaluation.
func CompileFilter(root expr.Node, schema *storage.Schema) (*FilterProg, bool) {
	need := make([]bool, len(schema.Columns))
	n, ok := compileNode(root, schema, need)
	if !ok {
		return nil, false
	}
	return &FilterProg{root: n, need: need}, true
}

// NeedCols returns, per schema column, whether the filter reads it.
// The slice is owned by the program; callers must not mutate it.
func (p *FilterProg) NeedCols() []bool { return p.need }

// Eval evaluates the filter over a batch, writing b.Len tri-state
// values into out (len(out) >= b.Len).
func (p *FilterProg) Eval(b *Batch, out []int8) { p.root.eval(b, out) }

// fnode is one compiled kernel; eval writes b.Len mask entries.
type fnode interface {
	eval(b *Batch, out []int8)
}

// opMask precomputes a comparison operator's verdict for each
// three-way compare outcome, indexed by cmp+1 (so [0]=less, [1]=equal,
// [2]=greater). The inner loops reduce to one compare and one table
// load per row.
func opMask(op expr.BinaryOp) [3]int8 {
	switch op {
	case expr.OpEq:
		return [3]int8{0, 1, 0}
	case expr.OpNe:
		return [3]int8{1, 0, 1}
	case expr.OpLt:
		return [3]int8{1, 0, 0}
	case expr.OpLe:
		return [3]int8{1, 1, 0}
	case expr.OpGt:
		return [3]int8{0, 0, 1}
	case expr.OpGe:
		return [3]int8{0, 1, 1}
	}
	return [3]int8{}
}

type constNode struct{ v int8 }

func (n *constNode) eval(b *Batch, out []int8) {
	for i := 0; i < b.Len; i++ {
		out[i] = n.v
	}
}

// boolFieldNode is a bare bool column used directly as a predicate.
type boolFieldNode struct{ ci int }

func (n *boolFieldNode) eval(b *Batch, out []int8) {
	v := b.Vecs[n.ci]
	for i := 0; i < b.Len; i++ {
		switch {
		case v.Null[i]:
			out[i] = -1
		case v.I64[i] != 0:
			out[i] = 1
		default:
			out[i] = 0
		}
	}
}

type notNode struct{ x fnode }

func (n *notNode) eval(b *Batch, out []int8) {
	n.x.eval(b, out)
	for i := 0; i < b.Len; i++ {
		if out[i] >= 0 {
			out[i] = 1 - out[i]
		}
	}
}

type andNode struct {
	l, r    fnode
	scratch []int8
}

func (n *andNode) eval(b *Batch, out []int8) {
	n.l.eval(b, out)
	n.r.eval(b, n.scratch)
	for i := 0; i < b.Len; i++ {
		a, c := out[i], n.scratch[i]
		switch {
		case a == 0 || c == 0:
			out[i] = 0
		case a == -1 || c == -1:
			out[i] = -1
		}
	}
}

type orNode struct {
	l, r    fnode
	scratch []int8
}

func (n *orNode) eval(b *Batch, out []int8) {
	n.l.eval(b, out)
	n.r.eval(b, n.scratch)
	for i := 0; i < b.Len; i++ {
		a, c := out[i], n.scratch[i]
		switch {
		case a == 1 || c == 1:
			out[i] = 1
		case a == -1 || c == -1:
			out[i] = -1
		}
	}
}

// cmpI64Node compares an int64-backed column (int, time-as-nanos,
// bool-as-0/1) against a same-class literal.
type cmpI64Node struct {
	ci  int
	lit int64
	res [3]int8
}

func (n *cmpI64Node) eval(b *Batch, out []int8) {
	v := b.Vecs[n.ci]
	lit := n.lit
	for i := 0; i < b.Len; i++ {
		if v.Null[i] {
			out[i] = -1
			continue
		}
		x := v.I64[i]
		switch {
		case x < lit:
			out[i] = n.res[0]
		case x > lit:
			out[i] = n.res[2]
		default:
			out[i] = n.res[1]
		}
	}
}

// cmpF64Node compares a numeric column against a numeric literal in
// float space, mirroring val.Compare's int/float coercion (including
// its NaN behaviour: NaN neither less nor greater compares "equal").
type cmpF64Node struct {
	ci       int
	lit      float64
	colIsInt bool
	res      [3]int8
}

func (n *cmpF64Node) eval(b *Batch, out []int8) {
	v := b.Vecs[n.ci]
	lit := n.lit
	for i := 0; i < b.Len; i++ {
		if v.Null[i] {
			out[i] = -1
			continue
		}
		var x float64
		if n.colIsInt {
			x = float64(v.I64[i])
		} else {
			x = v.F64[i]
		}
		switch {
		case x < lit:
			out[i] = n.res[0]
		case x > lit:
			out[i] = n.res[2]
		default:
			out[i] = n.res[1]
		}
	}
}

// cmpStrEqNode tests string (in)equality via dictionary codes: one
// dictionary probe per segment turns every row test into a uint32
// compare. hit/miss are the verdicts for equal/unequal rows.
type cmpStrEqNode struct {
	lit       string
	ci        int
	hit, miss int8

	seg  *Segment // dictionary cache key
	code int64    // lit's code in seg's dictionary, -1 if absent
}

func (n *cmpStrEqNode) bind(b *Batch) {
	if b.Seg == n.seg {
		return
	}
	n.seg = b.Seg
	n.code = -1
	for i, s := range b.Vecs[n.ci].Dict {
		if s == n.lit {
			n.code = int64(i)
			break
		}
	}
}

func (n *cmpStrEqNode) eval(b *Batch, out []int8) {
	n.bind(b)
	v := b.Vecs[n.ci]
	for i := 0; i < b.Len; i++ {
		switch {
		case v.Null[i]:
			out[i] = -1
		case int64(v.Code[i]) == n.code:
			out[i] = n.hit
		default:
			out[i] = n.miss
		}
	}
}

// cmpStrOrdNode orders a string column against a literal.
type cmpStrOrdNode struct {
	ci  int
	lit string
	res [3]int8
}

func (n *cmpStrOrdNode) eval(b *Batch, out []int8) {
	v := b.Vecs[n.ci]
	for i := 0; i < b.Len; i++ {
		if v.Null[i] {
			out[i] = -1
			continue
		}
		out[i] = n.res[strings.Compare(v.Dict[v.Code[i]], n.lit)+1]
	}
}

// cmpBytesNode orders a bytes column against a literal.
type cmpBytesNode struct {
	ci  int
	lit []byte
	res [3]int8
}

func (n *cmpBytesNode) eval(b *Batch, out []int8) {
	v := b.Vecs[n.ci]
	for i := 0; i < b.Len; i++ {
		if v.Null[i] {
			out[i] = -1
			continue
		}
		out[i] = n.res[bytes.Compare(v.Bytes[i], n.lit)+1]
	}
}

// incompatNode handles Eq/Ne between incomparable kinds: NULL rows
// yield NULL, every other row a constant verdict (false for =, true
// for !=), matching evalBinary's incomparable-kind clause.
type incompatNode struct {
	ci int
	v  int8
}

func (n *incompatNode) eval(b *Batch, out []int8) {
	nulls := b.Vecs[n.ci].Null
	for i := 0; i < b.Len; i++ {
		if nulls[i] {
			out[i] = -1
		} else {
			out[i] = n.v
		}
	}
}

type isNullNode struct {
	ci     int
	negate bool
}

func (n *isNullNode) eval(b *Batch, out []int8) {
	nulls := b.Vecs[n.ci].Null
	want := int8(1)
	other := int8(0)
	if n.negate {
		want, other = 0, 1
	}
	for i := 0; i < b.Len; i++ {
		if nulls[i] {
			out[i] = want
		} else {
			out[i] = other
		}
	}
}

// inNode tests membership against a literal list, with the list
// pre-bucketed per kind so the inner loop never boxes. hasNull
// preserves the SQL rule that x IN (…, NULL) is NULL when unmatched.
type inNode struct {
	ci      int
	kind    val.Kind
	i64s    []int64   // exact matches for int/time/bool columns
	f64s    []float64 // coerced numeric matches
	strs    []string
	bts     [][]byte
	hasNull bool
	hit     int8 // verdict on match (0 when negated)
	miss    int8 // verdict on no match and no null literal

	seg   *Segment
	codes []int64 // string literal codes in seg's dictionary
}

func (n *inNode) bind(b *Batch) {
	if b.Seg == n.seg {
		return
	}
	n.seg = b.Seg
	n.codes = n.codes[:0]
	dict := b.Vecs[n.ci].Dict
	for _, s := range n.strs {
		for i, d := range dict {
			if d == s {
				n.codes = append(n.codes, int64(i))
				break
			}
		}
	}
}

func (n *inNode) eval(b *Batch, out []int8) {
	v := b.Vecs[n.ci]
	if n.kind == val.KindString {
		n.bind(b)
	}
	noMatch := n.miss
	if n.hasNull {
		noMatch = -1
	}
	for i := 0; i < b.Len; i++ {
		if v.Null[i] {
			out[i] = -1
			continue
		}
		match := false
		switch n.kind {
		case val.KindInt:
			x := v.I64[i]
			for _, l := range n.i64s {
				if x == l {
					match = true
					break
				}
			}
			if !match && len(n.f64s) > 0 {
				f := float64(x)
				for _, l := range n.f64s {
					if f == l {
						match = true
						break
					}
				}
			}
		case val.KindFloat:
			x := v.F64[i]
			for _, l := range n.f64s {
				if x == l {
					match = true
					break
				}
			}
		case val.KindTime, val.KindBool:
			x := v.I64[i]
			for _, l := range n.i64s {
				if x == l {
					match = true
					break
				}
			}
		case val.KindString:
			x := int64(v.Code[i])
			for _, c := range n.codes {
				if x == c {
					match = true
					break
				}
			}
		case val.KindBytes:
			x := v.Bytes[i]
			for _, l := range n.bts {
				if bytes.Equal(x, l) {
					match = true
					break
				}
			}
		}
		if match {
			out[i] = n.hit
		} else {
			out[i] = noMatch
		}
	}
}

// ---- compilation ----

func compileNode(n expr.Node, schema *storage.Schema, need []bool) (fnode, bool) {
	// Field-free subtrees fold to a constant using the real evaluator,
	// so constant semantics (including errors, which fail compilation
	// and force the row path) are exact by construction.
	if len(expr.Fields(n)) == 0 {
		v, err := expr.Eval(n, expr.EmptyResolver)
		if err != nil {
			return nil, false
		}
		if v.IsNull() {
			return &constNode{v: -1}, true
		}
		b, ok := v.AsBool()
		if !ok {
			return nil, false
		}
		if b {
			return &constNode{v: 1}, true
		}
		return &constNode{v: 0}, true
	}

	switch x := n.(type) {
	case *expr.Field:
		ci := schema.ColIndex(x.Name)
		if ci < 0 {
			// Unknown field resolves to NULL in the row path.
			return &constNode{v: -1}, true
		}
		if schema.Columns[ci].Kind != val.KindBool {
			// A non-bool field in boolean position errors row-side.
			return nil, false
		}
		need[ci] = true
		return &boolFieldNode{ci: ci}, true

	case *expr.Not:
		inner, ok := compileNode(x.X, schema, need)
		if !ok {
			return nil, false
		}
		return &notNode{x: inner}, true

	case *expr.Binary:
		if x.Op == expr.OpAnd || x.Op == expr.OpOr {
			l, ok := compileNode(x.L, schema, need)
			if !ok {
				return nil, false
			}
			r, ok := compileNode(x.R, schema, need)
			if !ok {
				return nil, false
			}
			if x.Op == expr.OpAnd {
				return &andNode{l: l, r: r, scratch: make([]int8, BatchSize)}, true
			}
			return &orNode{l: l, r: r, scratch: make([]int8, BatchSize)}, true
		}
		if !x.Op.IsComparison() {
			return nil, false // arithmetic in boolean position
		}
		field, lit, op, ok := fieldLitCmp(x)
		if !ok {
			return nil, false
		}
		return compileCmp(field, op, lit, schema, need)

	case *expr.Between:
		f, okF := x.X.(*expr.Field)
		lo, okLo := x.Lo.(*expr.Literal)
		hi, okHi := x.Hi.(*expr.Literal)
		if !okF || !okLo || !okHi {
			return nil, false
		}
		if lo.Val.IsNull() || hi.Val.IsNull() {
			// BETWEEN with a NULL bound is NULL for every row,
			// including under NOT BETWEEN.
			return &constNode{v: -1}, true
		}
		ge, ok := compileCmp(f.Name, expr.OpGe, lo.Val, schema, need)
		if !ok {
			return nil, false
		}
		le, ok := compileCmp(f.Name, expr.OpLe, hi.Val, schema, need)
		if !ok {
			return nil, false
		}
		var out fnode = &andNode{l: ge, r: le, scratch: make([]int8, BatchSize)}
		if x.Negate {
			out = &notNode{x: out}
		}
		return out, true

	case *expr.In:
		f, okF := x.X.(*expr.Field)
		if !okF {
			return nil, false
		}
		ci := schema.ColIndex(f.Name)
		if ci < 0 {
			return &constNode{v: -1}, true // NULL IN (...) is NULL
		}
		node := &inNode{ci: ci, kind: schema.Columns[ci].Kind, hit: 1, miss: 0}
		if x.Negate {
			node.hit, node.miss = 0, 1
		}
		for _, alt := range x.List {
			l, okL := alt.(*expr.Literal)
			if !okL {
				return nil, false
			}
			lv := l.Val
			if lv.IsNull() {
				node.hasNull = true
				continue
			}
			// Bucket literals that can equal a value of the column's
			// kind; others are unreachable and simply dropped.
			switch node.kind {
			case val.KindInt:
				if i, ok := lv.AsInt(); ok {
					node.i64s = append(node.i64s, i)
				} else if f64, ok := lv.AsFloat(); ok {
					node.f64s = append(node.f64s, f64)
				}
			case val.KindFloat:
				if f64, ok := lv.AsFloat(); ok {
					node.f64s = append(node.f64s, f64)
				}
			case val.KindTime:
				if t, ok := lv.AsTime(); ok {
					node.i64s = append(node.i64s, t.UnixNano())
				}
			case val.KindBool:
				if bv, ok := lv.AsBool(); ok {
					if bv {
						node.i64s = append(node.i64s, 1)
					} else {
						node.i64s = append(node.i64s, 0)
					}
				}
			case val.KindString:
				if s, ok := lv.AsString(); ok {
					node.strs = append(node.strs, s)
				}
			case val.KindBytes:
				if bb, ok := lv.AsBytes(); ok {
					node.bts = append(node.bts, bb)
				}
			}
		}
		need[ci] = true
		return node, true

	case *expr.IsNull:
		f, okF := x.X.(*expr.Field)
		if !okF {
			return nil, false
		}
		ci := schema.ColIndex(f.Name)
		if ci < 0 {
			// Unknown field is NULL: IS NULL true, IS NOT NULL false.
			if x.Negate {
				return &constNode{v: 0}, true
			}
			return &constNode{v: 1}, true
		}
		need[ci] = true
		return &isNullNode{ci: ci, negate: x.Negate}, true
	}
	return nil, false
}

// fieldLitCmp recognizes field OP literal / literal OP field,
// flipping ordering operators in the latter case.
func fieldLitCmp(b *expr.Binary) (field string, lit val.Value, op expr.BinaryOp, ok bool) {
	if f, okF := b.L.(*expr.Field); okF {
		if l, okL := b.R.(*expr.Literal); okL {
			return f.Name, l.Val, b.Op, true
		}
	}
	if l, okL := b.L.(*expr.Literal); okL {
		if f, okF := b.R.(*expr.Field); okF {
			switch b.Op {
			case expr.OpLt:
				return f.Name, l.Val, expr.OpGt, true
			case expr.OpLe:
				return f.Name, l.Val, expr.OpGe, true
			case expr.OpGt:
				return f.Name, l.Val, expr.OpLt, true
			case expr.OpGe:
				return f.Name, l.Val, expr.OpLe, true
			default:
				return f.Name, l.Val, b.Op, true
			}
		}
	}
	return "", val.Null, 0, false
}

func compileCmp(field string, op expr.BinaryOp, lit val.Value, schema *storage.Schema, need []bool) (fnode, bool) {
	ci := schema.ColIndex(field)
	if ci < 0 || lit.IsNull() {
		// Unknown field or NULL literal: comparison is NULL row-wide.
		return &constNode{v: -1}, true
	}
	colKind := schema.Columns[ci].Kind
	res := opMask(op)
	eqNe := op == expr.OpEq || op == expr.OpNe

	// incompat builds the incomparable-kinds kernel: = is false and
	// != is true for non-null rows; ordering operators error row-side,
	// so they are not kernel-representable.
	incompat := func() (fnode, bool) {
		if !eqNe {
			return nil, false
		}
		need[ci] = true
		v := int8(0)
		if op == expr.OpNe {
			v = 1
		}
		return &incompatNode{ci: ci, v: v}, true
	}

	switch colKind {
	case val.KindInt:
		if i, ok := lit.AsInt(); ok {
			need[ci] = true
			return &cmpI64Node{ci: ci, lit: i, res: res}, true
		}
		if f, ok := lit.AsFloat(); ok {
			need[ci] = true
			return &cmpF64Node{ci: ci, lit: f, colIsInt: true, res: res}, true
		}
		return incompat()
	case val.KindFloat:
		if f, ok := lit.AsFloat(); ok {
			need[ci] = true
			return &cmpF64Node{ci: ci, lit: f, res: res}, true
		}
		return incompat()
	case val.KindTime:
		if t, ok := lit.AsTime(); ok {
			need[ci] = true
			return &cmpI64Node{ci: ci, lit: t.UnixNano(), res: res}, true
		}
		return incompat()
	case val.KindBool:
		if bv, ok := lit.AsBool(); ok {
			need[ci] = true
			var n int64
			if bv {
				n = 1
			}
			return &cmpI64Node{ci: ci, lit: n, res: res}, true
		}
		return incompat()
	case val.KindString:
		if s, ok := lit.AsString(); ok {
			need[ci] = true
			if eqNe {
				node := &cmpStrEqNode{ci: ci, lit: s, hit: 1, miss: 0}
				if op == expr.OpNe {
					node.hit, node.miss = 0, 1
				}
				return node, true
			}
			return &cmpStrOrdNode{ci: ci, lit: s, res: res}, true
		}
		return incompat()
	case val.KindBytes:
		if bb, ok := lit.AsBytes(); ok {
			need[ci] = true
			return &cmpBytesNode{ci: ci, lit: bb, res: res}, true
		}
		return incompat()
	}
	return nil, false
}
