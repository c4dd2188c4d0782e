package expr

import (
	"fmt"
	"slices"
	"strings"

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
		return between(v, lo, hi, x.Negate)
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
		return compare(x.Op, l, rv)
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

// compare applies the comparison operator op to l and r: NULL when
// either is NULL; for incomparable kinds equality is false, inequality
// true and an ordering an error.
func compare(op BinaryOp, l, r val.Value) (val.Value, error) {
	if l.IsNull() || r.IsNull() {
		return val.Null, nil
	}
	c, err := val.Compare(l, r)
	if err != nil {
		switch op {
		case OpEq:
			return val.Bool(false), nil
		case OpNe:
			return val.Bool(true), nil
		}
		return val.Null, err
	}
	switch op {
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
	}
	return val.Bool(c >= 0), nil // OpGe
}

// between is v [NOT] BETWEEN lo AND hi: NULL when any operand is NULL,
// and both bounds compared even when the first already decides.
func between(v, lo, hi val.Value, negate bool) (val.Value, error) {
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return val.Null, nil
	}
	ge, err := compare(OpGe, v, lo)
	if err != nil {
		return val.Null, err
	}
	le, err := compare(OpLe, v, hi)
	if err != nil {
		return val.Null, err
	}
	g, _ := ge.AsBool()
	l, _ := le.AsBool()
	return val.Bool((g && l) != negate), nil
}

// Predicate is a compiled boolean expression ready for repeated
// evaluation: its source, its parse tree, and its atoms (see
// analyze.go), the top-level conjuncts that compare a bare field with
// literals. A standing copy (Standing) keeps the atoms alone when they
// are every conjunct, and its Root is nil.
type Predicate struct {
	Source string
	Root   Node
	Atoms  []Atom
}

// Compile parses and analyzes a predicate expression.
func Compile(src string) (*Predicate, error) {
	root, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return &Predicate{Source: src, Root: root, Atoms: atoms(root)}, nil
}

// Standing returns the form of p to store as a standing condition: its
// source and atoms with no tree when the atoms are every top-level
// conjunct, and p itself otherwise. Both match exactly alike.
func (p *Predicate) Standing() *Predicate {
	conjuncts := len(p.Atoms) // a BETWEEN is two atoms
	for i := range p.Atoms {
		if p.Atoms[i].between {
			conjuncts--
		}
	}
	if p.Root == nil || conjuncts < len(Conjuncts(p.Root)) {
		return p
	}
	return &Predicate{Source: p.Source, Atoms: p.Atoms}
}

// Detach returns the standing form of p with nothing of the text p was
// compiled from, so that a caller may keep it and drop the text. With no
// tree that is its atoms with copies of their field names and string
// literals, all in one string, and no source. A tree names parts of its
// text, so one is compiled again from a copy of p's source.
func (p *Predicate) Detach() *Predicate {
	s := p.Standing()
	if s.Root != nil {
		if d, err := Compile(strings.Clone(p.Source)); err == nil {
			return d
		}
		return s // only the empty source fails again, and it has no text
	}
	var text []byte
	for i := range s.Atoms {
		str, _ := s.Atoms[i].Lit.AsString()
		text = append(append(text, s.Atoms[i].Field...), str...)
	}
	rest := string(text)
	atoms := slices.Clone(s.Atoms)
	for i := range atoms {
		a := &atoms[i]
		a.Field, rest = rest[:len(a.Field)], rest[len(a.Field):]
		if str, ok := a.Lit.AsString(); ok {
			a.Lit, rest = val.String(rest[:len(str)]), rest[len(str):]
		}
	}
	return &Predicate{Atoms: atoms}
}

// Match evaluates the predicate; only a definite boolean true matches
// (NULL and false both reject, as in SQL WHERE). Without a tree it
// evaluates the atoms in source order as Eval does their conjunction:
// the first false or error decides, and a NULL rejects unless a later
// atom does first.
func (p *Predicate) Match(r Resolver) (bool, error) {
	if p.Root != nil {
		v, err := Eval(p.Root, r)
		b, _ := v.AsBool()
		return b && err == nil, err
	}
	match := true
	for i := 0; i < len(p.Atoms); i++ {
		a, hi := &p.Atoms[i], (*Atom)(nil)
		if a.between {
			i++
			hi = &p.Atoms[i]
		}
		v, err := a.eval(r, hi)
		if b, _ := v.AsBool(); err != nil || !b && !v.IsNull() {
			return false, err
		}
		match = match && !v.IsNull()
	}
	return match, nil
}
