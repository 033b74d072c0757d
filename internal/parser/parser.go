// Package parser builds Scaffold-lite ASTs from source text.
//
// Grammar (EBNF, informal):
//
//	program   = { module } .
//	module    = "module" ident "(" [ params ] ")" block .
//	params    = param { "," param } .
//	param     = ("qbit"|"cbit") ident [ "[" intlit "]" ] .
//	block     = "{" { stmt } "}" .
//	stmt      = decl ";" | gate ";" | call ";" | for | if .
//	decl      = ("qbit"|"cbit") ident [ "[" expr "]" ] .
//	gate/call = ident "(" [ qargs ] ")" .   // gate if ident names a builtin
//	for       = "for" "(" ident "=" expr ";" ident "<" expr ";" ident "++" ")" block .
//	if        = "if" "(" expr relop expr ")" block [ "else" block ] .
//	qarg      = ident | ident "[" expr "]" | ident "[" expr ":" expr "]" | expr .
//	expr      = term { ("+"|"-") term } .
//	term      = shift { ("*"|"/"|"%") shift } .
//	shift     = unary { "<<" unary } .
//	unary     = [ "-" ] primary .
//	primary   = intlit | floatlit | ident | "(" expr ")" .
//
// Trailing numeric arguments of rotation gates parse as angle expressions.
package parser

import (
	"fmt"

	"github.com/scaffold-go/multisimd/internal/ast"
	"github.com/scaffold-go/multisimd/internal/qasm"
	"github.com/scaffold-go/multisimd/internal/scaffold"
)

// parser reads tokens from the lexer one at a time: the grammar needs
// one token of lookahead, so the source is never held as a token slice.
type parser struct {
	lx  *scaffold.Lexer
	tok scaffold.Token // the current token
	err error          // the lexer's error; tok is EOF once it is set
}

// Parse parses a whole source file. A lexical error anywhere in src is
// reported in preference to a syntax error, as if src had been
// tokenized in full first.
func Parse(src string) (*ast.Program, error) {
	p := &parser{lx: scaffold.NewLexer(src)}
	p.next()
	prog, err := p.parseProgram()
	if err == nil && p.err == nil {
		return prog, nil
	}
	for p.err == nil && p.tok.Kind != scaffold.EOF {
		p.next()
	}
	if p.err != nil {
		return nil, p.err
	}
	return nil, err
}

func (p *parser) parseProgram() (*ast.Program, error) {
	prog := &ast.Program{}
	for p.cur().Kind != scaffold.EOF {
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		prog.Modules = append(prog.Modules, m)
	}
	return prog, nil
}

func (p *parser) cur() scaffold.Token { return p.tok }

// next returns the current token and advances to the following one.
func (p *parser) next() scaffold.Token {
	t := p.tok
	if p.err != nil {
		return t
	}
	if p.tok, p.err = p.lx.Next(); p.err != nil {
		p.tok = scaffold.Token{Kind: scaffold.EOF}
	}
	return t
}

func (p *parser) peekKind(k scaffold.Kind) bool { return p.cur().Kind == k }

func (p *parser) expect(k scaffold.Kind) (scaffold.Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, fmt.Errorf("parser: %s: expected %s, found %s %q", t.Pos, k, t.Kind, t.Text)
	}
	p.next()
	return t, nil
}

func (p *parser) parseModule() (*ast.Module, error) {
	kw, err := p.expect(scaffold.KwModule)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(scaffold.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(scaffold.LParen); err != nil {
		return nil, err
	}
	m := &ast.Module{Name: name.Text, Pos: kw.Pos}
	if !p.peekKind(scaffold.RParen) {
		for {
			param, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, param)
			if !p.peekKind(scaffold.Comma) {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(scaffold.RParen); err != nil {
		return nil, err
	}
	m.Body, err = p.parseBlock()
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (p *parser) parseParam() (ast.Param, error) {
	t := p.cur()
	classical := false
	switch t.Kind {
	case scaffold.KwQbit:
	case scaffold.KwCbit:
		classical = true
	default:
		return ast.Param{}, fmt.Errorf("parser: %s: expected parameter type, found %q", t.Pos, t.Text)
	}
	p.next()
	name, err := p.expect(scaffold.Ident)
	if err != nil {
		return ast.Param{}, err
	}
	param := ast.Param{Name: name.Text, Size: 1, Classical: classical, Pos: t.Pos}
	if p.peekKind(scaffold.LBracket) {
		p.next()
		sz, err := p.expect(scaffold.Int)
		if err != nil {
			return ast.Param{}, err
		}
		n, err := parseInt(sz)
		if err != nil {
			return ast.Param{}, err
		}
		if n <= 0 {
			return ast.Param{}, fmt.Errorf("parser: %s: parameter %s has non-positive size %d", sz.Pos, name.Text, n)
		}
		param.Size = int(n)
		if _, err := p.expect(scaffold.RBracket); err != nil {
			return ast.Param{}, err
		}
	}
	return param, nil
}

func (p *parser) parseBlock() (*ast.Block, error) {
	if _, err := p.expect(scaffold.LBrace); err != nil {
		return nil, err
	}
	b := &ast.Block{}
	for !p.peekKind(scaffold.RBrace) {
		if p.peekKind(scaffold.EOF) {
			return nil, fmt.Errorf("parser: %s: unexpected EOF in block", p.cur().Pos)
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // consume '}'
	return b, nil
}

func (p *parser) parseStmt() (ast.Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case scaffold.KwQbit, scaffold.KwCbit:
		return p.parseDecl()
	case scaffold.KwFor:
		return p.parseFor()
	case scaffold.KwIf:
		return p.parseIf()
	case scaffold.Ident:
		return p.parseGateOrCall()
	}
	return nil, fmt.Errorf("parser: %s: unexpected token %q at statement start", t.Pos, t.Text)
}

func (p *parser) parseDecl() (ast.Stmt, error) {
	t := p.next()
	classical := t.Kind == scaffold.KwCbit
	name, err := p.expect(scaffold.Ident)
	if err != nil {
		return nil, err
	}
	d := &ast.DeclStmt{Name: name.Text, Classical: classical, Pos: t.Pos}
	if p.peekKind(scaffold.LBracket) {
		p.next()
		d.Size, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(scaffold.RBracket); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(scaffold.Semicolon); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) parseFor() (ast.Stmt, error) {
	t := p.next()
	if _, err := p.expect(scaffold.LParen); err != nil {
		return nil, err
	}
	v, err := p.expect(scaffold.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(scaffold.Assign); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(scaffold.Semicolon); err != nil {
		return nil, err
	}
	v2, err := p.expect(scaffold.Ident)
	if err != nil {
		return nil, err
	}
	if v2.Text != v.Text {
		return nil, fmt.Errorf("parser: %s: loop condition variable %q does not match %q", v2.Pos, v2.Text, v.Text)
	}
	if _, err := p.expect(scaffold.Lt); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(scaffold.Semicolon); err != nil {
		return nil, err
	}
	v3, err := p.expect(scaffold.Ident)
	if err != nil {
		return nil, err
	}
	if v3.Text != v.Text {
		return nil, fmt.Errorf("parser: %s: loop increment variable %q does not match %q", v3.Pos, v3.Text, v.Text)
	}
	if _, err := p.expect(scaffold.PlusPlus); err != nil {
		return nil, err
	}
	if _, err := p.expect(scaffold.RParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ast.ForStmt{Var: v.Text, Lo: lo, Hi: hi, Body: body, Pos: t.Pos}, nil
}

func (p *parser) parseIf() (ast.Stmt, error) {
	t := p.next()
	if _, err := p.expect(scaffold.LParen); err != nil {
		return nil, err
	}
	l, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	opTok := p.cur()
	switch opTok.Kind {
	case scaffold.Lt, scaffold.Le, scaffold.Gt, scaffold.Ge, scaffold.EqEq, scaffold.NotEq:
		p.next()
	default:
		return nil, fmt.Errorf("parser: %s: expected comparison operator, found %q", opTok.Pos, opTok.Text)
	}
	r, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(scaffold.RParen); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	stmt := &ast.IfStmt{Cond: ast.Cond{Op: opTok.Kind, L: l, R: r, Pos: opTok.Pos}, Then: then, Pos: t.Pos}
	if p.peekKind(scaffold.KwElse) {
		p.next()
		stmt.Else, err = p.parseBlock()
		if err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) parseGateOrCall() (ast.Stmt, error) {
	name := p.next()
	if _, err := p.expect(scaffold.LParen); err != nil {
		return nil, err
	}
	var qargs []ast.QubitExpr
	var angle ast.Expr
	op, isGate := qasm.ByName(name.Text)
	if !p.peekKind(scaffold.RParen) {
		for {
			if isGate && op.IsRotation() && len(qargs) == op.Arity() {
				// Final argument of a rotation is the angle expression.
				a, err := p.parseAngle()
				if err != nil {
					return nil, err
				}
				angle = a
			} else {
				q, err := p.parseQubitArg()
				if err != nil {
					return nil, err
				}
				qargs = append(qargs, q)
			}
			if !p.peekKind(scaffold.Comma) {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(scaffold.RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(scaffold.Semicolon); err != nil {
		return nil, err
	}
	if isGate {
		if op.IsRotation() && angle == nil {
			return nil, fmt.Errorf("parser: %s: rotation %s missing angle argument", name.Pos, name.Text)
		}
		return &ast.GateStmt{Name: name.Text, Args: qargs, Angle: angle, Pos: name.Pos}, nil
	}
	return &ast.CallStmt{Callee: name.Text, Args: qargs, Pos: name.Pos}, nil
}

// parseAngle parses an angle expression, which may include float literals.
func (p *parser) parseAngle() (ast.Expr, error) { return p.parseExpr() }

func (p *parser) parseQubitArg() (ast.QubitExpr, error) {
	name, err := p.expect(scaffold.Ident)
	if err != nil {
		return ast.QubitExpr{}, err
	}
	q := ast.QubitExpr{Name: name.Text, Pos: name.Pos}
	if !p.peekKind(scaffold.LBracket) {
		return q, nil
	}
	p.next()
	q.Index, err = p.parseExpr()
	if err != nil {
		return ast.QubitExpr{}, err
	}
	if p.peekKind(scaffold.Colon) {
		p.next()
		q.SliceHi, err = p.parseExpr()
		if err != nil {
			return ast.QubitExpr{}, err
		}
	}
	if _, err := p.expect(scaffold.RBracket); err != nil {
		return ast.QubitExpr{}, err
	}
	return q, nil
}

func (p *parser) parseExpr() (ast.Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != scaffold.Plus && t.Kind != scaffold.Minus {
			return l, nil
		}
		p.next()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &ast.BinExpr{Op: t.Kind, L: l, R: r, Pos: t.Pos}
	}
}

func (p *parser) parseTerm() (ast.Expr, error) {
	l, err := p.parseShift()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != scaffold.Star && t.Kind != scaffold.Slash && t.Kind != scaffold.Percent {
			return l, nil
		}
		p.next()
		r, err := p.parseShift()
		if err != nil {
			return nil, err
		}
		l = &ast.BinExpr{Op: t.Kind, L: l, R: r, Pos: t.Pos}
	}
}

func (p *parser) parseShift() (ast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peekKind(scaffold.Shl) {
		t := p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &ast.BinExpr{Op: t.Kind, L: l, R: r, Pos: t.Pos}
	}
	return l, nil
}

func (p *parser) parseUnary() (ast.Expr, error) {
	if p.peekKind(scaffold.Minus) {
		t := p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.NegExpr{E: e, Pos: t.Pos}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case scaffold.Int:
		p.next()
		n, err := parseInt(t)
		if err != nil {
			return nil, err
		}
		return &ast.IntLit{Value: n, Pos: t.Pos}, nil
	case scaffold.Float:
		p.next()
		f, err := parseFloat(t)
		if err != nil {
			return nil, err
		}
		return &ast.FloatLit{Value: f, Pos: t.Pos}, nil
	case scaffold.Ident:
		p.next()
		return &ast.VarRef{Name: t.Text, Pos: t.Pos}, nil
	case scaffold.LParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(scaffold.RParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, fmt.Errorf("parser: %s: unexpected token %q in expression", t.Pos, t.Text)
}
