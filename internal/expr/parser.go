package expr

import (
	"fmt"
	"strconv"

	"eventdb/internal/val"
)

// Parse compiles source text to an AST.
func Parse(src string) (Node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	n, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("trailing input %q", p.peek().text)
	}
	return n, nil
}

type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) acceptOp(text string) bool {
	if t := p.peek(); t.kind == tokOp && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(text string) error {
	if !p.acceptOp(text) {
		return p.errorf("expected %q, got %q", text, p.peek().text)
	}
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("expr: parse error at %d in %q: %s",
		p.peek().pos, p.src, fmt.Sprintf(format, args...))
}

func (p *parser) parseOr() (Node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Node, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Node, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{X: x}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]BinaryOp{
	"=": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseCmp() (Node, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// Optional comparison suffix.
	if t := p.peek(); t.kind == tokOp {
		if op, ok := cmpOps[t.text]; ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	negate := false
	if t := p.peek(); t.kind == tokKeyword && t.text == "NOT" {
		// Lookahead: NOT BETWEEN / NOT IN / NOT LIKE (plain NOT is
		// handled a level up).
		if p.pos+1 < len(p.toks) {
			nt := p.toks[p.pos+1]
			if nt.kind == tokKeyword && (nt.text == "BETWEEN" || nt.text == "IN" || nt.text == "LIKE") {
				p.next()
				negate = true
			}
		}
	}
	switch {
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Between{X: l, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.acceptKeyword("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []Node
		for {
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &In{X: l, List: list, Negate: negate}, nil
	case p.acceptKeyword("LIKE"):
		pat, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Like{X: l, Pattern: pat, Negate: negate}, nil
	case p.acceptKeyword("IS"):
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Negate: neg}, nil
	}
	if negate {
		return nil, p.errorf("dangling NOT")
	}
	return l, nil
}

func (p *parser) parseAdd() (Node, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpAdd, L: l, R: r}
		case p.acceptOp("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (Node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.acceptOp("*"):
			op = OpMul
		case p.acceptOp("/"):
			op = OpDiv
		case p.acceptOp("%"):
			op = OpMod
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Node, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negated numeric literals for cleaner ASTs.
		if lit, ok := x.(*Literal); ok && lit.Val.IsNumeric() {
			nv, err := val.Neg(lit.Val)
			if err == nil {
				return &Literal{Val: nv}, nil
			}
		}
		return &Neg{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			// Out-of-range integer literal: fall back to float.
			f, ferr := strconv.ParseFloat(t.text, 64)
			if ferr != nil {
				return nil, p.errorf("bad integer %q", t.text)
			}
			return &Literal{Val: val.Float(f)}, nil
		}
		return &Literal{Val: val.Int(n)}, nil
	case tokFloat:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf("bad float %q", t.text)
		}
		return &Literal{Val: val.Float(f)}, nil
	case tokString:
		p.next()
		return &Literal{Val: val.String(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.next()
			return &Literal{Val: val.Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: val.Bool(false)}, nil
		case "NULL":
			p.next()
			return &Literal{Val: val.Null}, nil
		}
		return nil, p.errorf("unexpected keyword %s", t.text)
	case tokIdent:
		p.next()
		if p.acceptOp("(") {
			name := canonicalFunc(t.text)
			if _, ok := builtins[name]; !ok {
				return nil, p.errorf("unknown function %q", t.text)
			}
			var args []Node
			if !p.acceptOp(")") {
				for {
					a, err := p.parseOr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.acceptOp(",") {
						continue
					}
					break
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			if err := checkArity(name, len(args)); err != nil {
				return nil, p.errorf("%v", err)
			}
			return &Call{Name: name, Args: args}, nil
		}
		return &Field{Name: t.text}, nil
	case tokOp:
		if t.text == "(" {
			p.next()
			inner, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return inner, nil
		}
	}
	return nil, p.errorf("unexpected token %q", t.text)
}
