package expr

import (
	"strings"

	"eventdb/internal/val"
)

// Node is an expression AST node. Nodes are immutable after parsing and
// safe for concurrent evaluation.
type Node interface {
	// String renders the node back to parseable source text.
	String() string
}

// Literal is a constant value.
type Literal struct {
	Val val.Value
}

func (n *Literal) String() string {
	if s, ok := n.Val.AsString(); ok {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return n.Val.String()
}

// Field references a named attribute of the evaluation context (event
// attribute, table column, or $-envelope pseudo-field).
type Field struct {
	Name string
}

func (n *Field) String() string { return n.Name }

// BinaryOp enumerates binary operators; one byte keeps an Atom at 56 B.
type BinaryOp uint8

// Binary operators in the language.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
)

var binOpText = map[BinaryOp]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "AND", OpOr: "OR",
}

// IsComparison reports whether the operator yields a boolean from two
// ordered operands.
func (op BinaryOp) IsComparison() bool { return op <= OpGe }

func (op BinaryOp) String() string { return binOpText[op] }

// Binary applies a binary operator.
type Binary struct {
	Op   BinaryOp
	L, R Node
}

func (n *Binary) String() string {
	return "(" + n.L.String() + " " + n.Op.String() + " " + n.R.String() + ")"
}

// Not negates a boolean operand (Kleene logic: NOT NULL = NULL).
type Not struct {
	X Node
}

func (n *Not) String() string { return "(NOT " + n.X.String() + ")" }

// Neg arithmetically negates a numeric operand.
type Neg struct {
	X Node
}

func (n *Neg) String() string { return "(-" + n.X.String() + ")" }

// Between tests lo <= x AND x <= hi.
type Between struct {
	X, Lo, Hi Node
	Negate    bool
}

func (n *Between) String() string {
	op := " BETWEEN "
	if n.Negate {
		op = " NOT BETWEEN "
	}
	return "(" + n.X.String() + op + n.Lo.String() + " AND " + n.Hi.String() + ")"
}

// In tests membership of X in a list of alternatives.
type In struct {
	X      Node
	List   []Node
	Negate bool
}

func (n *In) String() string {
	var sb strings.Builder
	sb.WriteString("(" + n.X.String())
	if n.Negate {
		sb.WriteString(" NOT IN (")
	} else {
		sb.WriteString(" IN (")
	}
	for i, e := range n.List {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(e.String())
	}
	sb.WriteString("))")
	return sb.String()
}

// Like matches X against an SQL LIKE pattern (% = any run, _ = any one).
type Like struct {
	X, Pattern Node
	Negate     bool
}

func (n *Like) String() string {
	op := " LIKE "
	if n.Negate {
		op = " NOT LIKE "
	}
	return "(" + n.X.String() + op + n.Pattern.String() + ")"
}

// IsNull tests X IS [NOT] NULL.
type IsNull struct {
	X      Node
	Negate bool
}

func (n *IsNull) String() string {
	if n.Negate {
		return "(" + n.X.String() + " IS NOT NULL)"
	}
	return "(" + n.X.String() + " IS NULL)"
}

// Call invokes a built-in function.
type Call struct {
	Name string // canonical lower-case
	Args []Node
}

func (n *Call) String() string {
	var sb strings.Builder
	sb.WriteString(n.Name + "(")
	for i, a := range n.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteString(")")
	return sb.String()
}

// Walk visits every node in the tree in depth-first pre-order, stopping
// early if fn returns false.
func Walk(n Node, fn func(Node) bool) bool {
	if n == nil || !fn(n) {
		return false
	}
	switch x := n.(type) {
	case *Binary:
		return Walk(x.L, fn) && Walk(x.R, fn)
	case *Not:
		return Walk(x.X, fn)
	case *Neg:
		return Walk(x.X, fn)
	case *Between:
		return Walk(x.X, fn) && Walk(x.Lo, fn) && Walk(x.Hi, fn)
	case *In:
		if !Walk(x.X, fn) {
			return false
		}
		for _, e := range x.List {
			if !Walk(e, fn) {
				return false
			}
		}
		return true
	case *Like:
		return Walk(x.X, fn) && Walk(x.Pattern, fn)
	case *IsNull:
		return Walk(x.X, fn)
	case *Call:
		for _, a := range x.Args {
			if !Walk(a, fn) {
				return false
			}
		}
		return true
	}
	return true
}

// Fields returns the distinct field names referenced by the expression,
// in first-appearance order.
func Fields(n Node) []string {
	var out []string
	seen := map[string]bool{}
	Walk(n, func(m Node) bool {
		if f, ok := m.(*Field); ok && !seen[f.Name] {
			seen[f.Name] = true
			out = append(out, f.Name)
		}
		return true
	})
	return out
}
