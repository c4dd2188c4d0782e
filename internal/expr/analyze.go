package expr

import (
	"math"
	"slices"

	"eventdb/internal/val"
)

// Predicate analysis: a predicate's atoms are its top-level conjuncts
// that compare a bare field with literals. Stored expressions (rules,
// subscriptions, pattern guards) are pre-filtered by attribute indexes
// over their atoms, and one made only of atoms keeps only them
// (Standing): expressions as data, the paper's way to "significantly
// extend traditional publish/subscribe technology" (§2.2.c.i.2).

// Atom is one top-level conjunct of the form `field op literal` or
// `literal op field`, op one of = < <= > >=; a non-negated `field
// BETWEEN literal AND literal` is two atoms, `field >= lo` marked as a
// BETWEEN's low bound, then `field <= hi`, which evaluate as one.
type Atom struct {
	Field    string
	Lit      val.Value
	Op       BinaryOp // read as field Op Lit: flipped for `literal op field`
	LitFirst bool     // written `literal op field`: compared in that order, as errors name it
	between  bool     // a BETWEEN's low bound: the next atom holds its high bound
}

// eval evaluates the atom against r exactly as Eval evaluates the
// conjunct it came from; hi is the high bound of a BETWEEN's low-bound
// atom, and nil otherwise.
func (a *Atom) eval(r Resolver, hi *Atom) (val.Value, error) {
	v, ok := r.Get(a.Field)
	if !ok {
		v = val.Null
	}
	switch {
	case hi != nil:
		return between(v, a.Lit, hi.Lit, false)
	case a.LitFirst:
		return compare(flip(a.Op), a.Lit, v)
	}
	return compare(a.Op, v, a.Lit)
}

// EqPred is an equality atom: field = literal.
type EqPred struct {
	Field string
	Value val.Value
}

// RangePred constrains field to an interval. Unbounded ends are ±Inf
// for numerics, or have Unbounded set.
type RangePred struct {
	Field          string
	Lo, Hi         val.Value
	LoOpen, HiOpen bool // strict inequality
	LoUnbounded    bool
	HiUnbounded    bool
}

// atoms extracts the top-level conjuncts of root that are atoms, in
// source order, into a slice of their own length (nil for none). The
// full expression remains the source of truth wherever an atom is
// missing: extraction is conservative (anything uncertain is simply not
// extracted).
func atoms(root Node) []Atom {
	var buf [8]Atom
	out := buf[:0]
	for _, c := range Conjuncts(root) {
		switch x := c.(type) {
		case *Binary:
			if a, ok := cmpAtom(x); ok {
				out = append(out, a)
			}
		case *Between:
			f, okF := x.X.(*Field)
			lo, okLo := x.Lo.(*Literal)
			hi, okHi := x.Hi.(*Literal)
			if okF && okLo && okHi && !x.Negate {
				out = append(out, Atom{Field: f.Name, Lit: lo.Val, Op: OpGe, between: true},
					Atom{Field: f.Name, Lit: hi.Val, Op: OpLe})
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return slices.Clone(out)
}

// Indexable derives the rules index's views from the predicate's
// atoms: the equalities in source order, and one range per field,
// merged over its range atoms in first-appearance order (a later bound
// replaces an earlier one on the same side: each must hold, so either
// pre-filters). Scan filters and zone pruning read the atoms
// themselves.
func (p *Predicate) Indexable() ([]EqPred, []RangePred) {
	var eqs []EqPred
	var rs []RangePred
	for i := range p.Atoms {
		a := &p.Atoms[i]
		if a.Op == OpEq {
			eqs = append(eqs, EqPred{Field: a.Field, Value: a.Lit})
			continue
		}
		j := slices.IndexFunc(rs, func(r RangePred) bool { return r.Field == a.Field })
		if j < 0 {
			j, rs = len(rs), append(rs, RangePred{Field: a.Field, LoUnbounded: true, HiUnbounded: true})
		}
		r := &rs[j]
		if a.Op == OpLt || a.Op == OpLe {
			r.Hi, r.HiOpen, r.HiUnbounded = a.Lit, a.Op == OpLt, false
		} else { // >, >= and BETWEEN's low bound
			r.Lo, r.LoOpen, r.LoUnbounded = a.Lit, a.Op == OpGt, false
		}
	}
	return eqs, rs
}

// cmpAtom recognizes field OP literal and literal OP field (flipping
// the operator) for the atom operators.
func cmpAtom(b *Binary) (Atom, bool) {
	if !b.Op.IsComparison() || b.Op == OpNe {
		return Atom{}, false
	}
	if f, okF := b.L.(*Field); okF {
		if l, okL := b.R.(*Literal); okL {
			return Atom{Field: f.Name, Op: b.Op, Lit: l.Val}, true
		}
	}
	if l, okL := b.L.(*Literal); okL {
		if f, okF := b.R.(*Field); okF {
			return Atom{Field: f.Name, Op: flip(b.Op), Lit: l.Val, LitFirst: true}, true
		}
	}
	return Atom{}, false
}

func flip(op BinaryOp) BinaryOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// Conjuncts splits the expression on top-level ANDs.
func Conjuncts(n Node) []Node {
	if b, ok := n.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Node{n}
}

// NumericBounds returns the interval as float64 bounds for use in
// interval-index structures; ok is false when either bound is a
// non-numeric literal.
func (r *RangePred) NumericBounds() (lo, hi float64, ok bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if !r.LoUnbounded {
		f, okF := r.Lo.AsFloat()
		if !okF {
			return 0, 0, false
		}
		lo = f
	}
	if !r.HiUnbounded {
		f, okF := r.Hi.AsFloat()
		if !okF {
			return 0, 0, false
		}
		hi = f
	}
	return lo, hi, true
}
