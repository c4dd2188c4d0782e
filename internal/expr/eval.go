package expr

import (
	"fmt"

	"eventdb/internal/val"
)

// Resolver supplies field values during evaluation. Events, table rows
// and join contexts all implement it.
type Resolver interface {
	// Get returns the value of the named field. Returning ok=false means
	// the field is unknown, which evaluates as NULL (SQL missing-column
	// semantics are an error at plan time; event attributes are
	// open-content, so absence is null).
	Get(name string) (val.Value, bool)
}

// MapResolver adapts a plain map to a Resolver.
type MapResolver map[string]val.Value

// Get implements Resolver.
func (m MapResolver) Get(name string) (val.Value, bool) {
	v, ok := m[name]
	return v, ok
}

// EmptyResolver resolves nothing; useful for evaluating constant
// expressions.
var EmptyResolver Resolver = MapResolver(nil)

// Eval evaluates the expression against r. Comparisons involving NULL
// yield NULL; AND/OR/NOT use Kleene three-valued logic. Type errors
// (e.g. 1 + 'x') return an error.
func Eval(n Node, r Resolver) (val.Value, error) {
	switch x := n.(type) {
	case *Literal:
		return x.Val, nil
	case *Field:
		v, ok := r.Get(x.Name)
		if !ok {
			return val.Null, nil
		}
		return v, nil
	case *Neg:
		v, err := Eval(x.X, r)
		if err != nil {
			return val.Null, err
		}
		return val.Neg(v)
	case *Not:
		v, err := Eval(x.X, r)
		if err != nil {
			return val.Null, err
		}
		if v.IsNull() {
			return val.Null, nil
		}
		b, ok := v.AsBool()
		if !ok {
			return val.Null, fmt.Errorf("expr: NOT requires boolean, got %s", v.Kind())
		}
		return val.Bool(!b), nil
	case *Binary:
		return evalBinary(x, r)
	case *Between:
		v, err := Eval(x.X, r)
		if err != nil {
			return val.Null, err
		}
		lo, err := Eval(x.Lo, r)
		if err != nil {
			return val.Null, err
		}
		hi, err := Eval(x.Hi, r)
		if err != nil {
			return val.Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return val.Null, nil
		}
		c1, err := val.Compare(v, lo)
		if err != nil {
			return val.Null, err
		}
		c2, err := val.Compare(v, hi)
		if err != nil {
			return val.Null, err
		}
		res := c1 >= 0 && c2 <= 0
		if x.Negate {
			res = !res
		}
		return val.Bool(res), nil
	case *In:
		v, err := Eval(x.X, r)
		if err != nil {
			return val.Null, err
		}
		if v.IsNull() {
			return val.Null, nil
		}
		sawNull := false
		for _, alt := range x.List {
			av, err := Eval(alt, r)
			if err != nil {
				return val.Null, err
			}
			if av.IsNull() {
				sawNull = true
				continue
			}
			if val.Equal(v, av) {
				return val.Bool(!x.Negate), nil
			}
		}
		if sawNull {
			// SQL: x IN (…, NULL) is NULL when no match found.
			return val.Null, nil
		}
		return val.Bool(x.Negate), nil
	case *Like:
		v, err := Eval(x.X, r)
		if err != nil {
			return val.Null, err
		}
		p, err := Eval(x.Pattern, r)
		if err != nil {
			return val.Null, err
		}
		if v.IsNull() || p.IsNull() {
			return val.Null, nil
		}
		s, ok := v.AsString()
		if !ok {
			return val.Null, fmt.Errorf("expr: LIKE requires string operand, got %s", v.Kind())
		}
		pat, ok := p.AsString()
		if !ok {
			return val.Null, fmt.Errorf("expr: LIKE requires string pattern, got %s", p.Kind())
		}
		res := likeMatch(s, pat)
		if x.Negate {
			res = !res
		}
		return val.Bool(res), nil
	case *IsNull:
		v, err := Eval(x.X, r)
		if err != nil {
			return val.Null, err
		}
		res := v.IsNull()
		if x.Negate {
			res = !res
		}
		return val.Bool(res), nil
	case *Call:
		b, ok := builtins[x.Name]
		if !ok {
			return val.Null, fmt.Errorf("expr: unknown function %q", x.Name)
		}
		args := make([]val.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := Eval(a, r)
			if err != nil {
				return val.Null, err
			}
			args[i] = v
		}
		return b.fn(args)
	}
	return val.Null, fmt.Errorf("expr: unknown node %T", n)
}

func evalBinary(x *Binary, r Resolver) (val.Value, error) {
	// Kleene logic with short-circuit for AND/OR.
	if x.Op == OpAnd || x.Op == OpOr {
		l, err := Eval(x.L, r)
		if err != nil {
			return val.Null, err
		}
		lb, lIsBool := l.AsBool()
		if !lIsBool && !l.IsNull() {
			return val.Null, fmt.Errorf("expr: %s requires boolean, got %s", x.Op, l.Kind())
		}
		if x.Op == OpAnd && lIsBool && !lb {
			return val.Bool(false), nil
		}
		if x.Op == OpOr && lIsBool && lb {
			return val.Bool(true), nil
		}
		rv, err := Eval(x.R, r)
		if err != nil {
			return val.Null, err
		}
		rb, rIsBool := rv.AsBool()
		if !rIsBool && !rv.IsNull() {
			return val.Null, fmt.Errorf("expr: %s requires boolean, got %s", x.Op, rv.Kind())
		}
		if x.Op == OpAnd {
			switch {
			case rIsBool && !rb:
				return val.Bool(false), nil
			case l.IsNull() || rv.IsNull():
				return val.Null, nil
			default:
				return val.Bool(true), nil
			}
		}
		switch {
		case rIsBool && rb:
			return val.Bool(true), nil
		case l.IsNull() || rv.IsNull():
			return val.Null, nil
		default:
			return val.Bool(false), nil
		}
	}

	l, err := Eval(x.L, r)
	if err != nil {
		return val.Null, err
	}
	rv, err := Eval(x.R, r)
	if err != nil {
		return val.Null, err
	}
	if x.Op.IsComparison() {
		if l.IsNull() || rv.IsNull() {
			return val.Null, nil
		}
		c, err := val.Compare(l, rv)
		if err != nil {
			// Incomparable kinds: equality is false, ordering is an error.
			if x.Op == OpEq {
				return val.Bool(false), nil
			}
			if x.Op == OpNe {
				return val.Bool(true), nil
			}
			return val.Null, err
		}
		switch x.Op {
		case OpEq:
			return val.Bool(c == 0), nil
		case OpNe:
			return val.Bool(c != 0), nil
		case OpLt:
			return val.Bool(c < 0), nil
		case OpLe:
			return val.Bool(c <= 0), nil
		case OpGt:
			return val.Bool(c > 0), nil
		case OpGe:
			return val.Bool(c >= 0), nil
		}
	}
	switch x.Op {
	case OpAdd:
		return val.Add(l, rv)
	case OpSub:
		return val.Sub(l, rv)
	case OpMul:
		return val.Mul(l, rv)
	case OpDiv:
		return val.Div(l, rv)
	case OpMod:
		return val.Mod(l, rv)
	}
	return val.Null, fmt.Errorf("expr: unknown operator %v", x.Op)
}

// Predicate is a compiled boolean expression ready for repeated
// evaluation, together with its indexable analysis (see analyze.go).
type Predicate struct {
	Source string
	Root   Node
	// Analysis for predicate indexing ("expressions as data").
	EqPreds    []EqPred
	RangePreds []RangePred
	FieldNames []string
}

// Compile parses and analyzes a predicate expression.
func Compile(src string) (*Predicate, error) {
	root, err := Parse(src)
	if err != nil {
		return nil, err
	}
	p := &Predicate{Source: src, Root: root, FieldNames: Fields(root)}
	p.EqPreds, p.RangePreds = analyze(root)
	return p, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(src string) *Predicate {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Match evaluates the predicate; only a definite boolean true matches
// (NULL and false both reject, as in SQL WHERE).
func (p *Predicate) Match(r Resolver) (bool, error) {
	v, err := Eval(p.Root, r)
	if err != nil {
		return false, err
	}
	b, ok := v.AsBool()
	return ok && b, nil
}
