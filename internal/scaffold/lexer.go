package scaffold

import (
	"fmt"
	"strings"
)

// Lexer converts Scaffold-lite source text into tokens. It supports //
// line comments and /* */ block comments.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			for {
				if lx.off >= len(lx.src) {
					return fmt.Errorf("scaffold: %s: unterminated block comment", start)
				}
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && (isIdentStart(lx.peek()) || isDigit(lx.peek())) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Text: text, Pos: pos}, nil
		}
		return Token{Kind: Ident, Text: text, Pos: pos}, nil
	case isDigit(c), c == '.' && isDigit(lx.peek2()):
		return lx.lexNumber(pos)
	}
	lx.advance()
	two := func(next byte, withKind, withoutKind Kind) Token {
		if lx.peek() == next {
			lx.advance()
			return Token{Kind: withKind, Text: string([]byte{c, next}), Pos: pos}
		}
		return Token{Kind: withoutKind, Text: string(c), Pos: pos}
	}
	switch c {
	case '(':
		return Token{Kind: LParen, Text: "(", Pos: pos}, nil
	case ')':
		return Token{Kind: RParen, Text: ")", Pos: pos}, nil
	case '{':
		return Token{Kind: LBrace, Text: "{", Pos: pos}, nil
	case '}':
		return Token{Kind: RBrace, Text: "}", Pos: pos}, nil
	case '[':
		return Token{Kind: LBracket, Text: "[", Pos: pos}, nil
	case ']':
		return Token{Kind: RBracket, Text: "]", Pos: pos}, nil
	case ',':
		return Token{Kind: Comma, Text: ",", Pos: pos}, nil
	case ';':
		return Token{Kind: Semicolon, Text: ";", Pos: pos}, nil
	case ':':
		return Token{Kind: Colon, Text: ":", Pos: pos}, nil
	case '+':
		return two('+', PlusPlus, Plus), nil
	case '-':
		return Token{Kind: Minus, Text: "-", Pos: pos}, nil
	case '*':
		return Token{Kind: Star, Text: "*", Pos: pos}, nil
	case '/':
		return Token{Kind: Slash, Text: "/", Pos: pos}, nil
	case '%':
		return Token{Kind: Percent, Text: "%", Pos: pos}, nil
	case '<':
		if lx.peek() == '<' {
			lx.advance()
			return Token{Kind: Shl, Text: "<<", Pos: pos}, nil
		}
		return two('=', Le, Lt), nil
	case '>':
		return two('=', Ge, Gt), nil
	case '=':
		return two('=', EqEq, Assign), nil
	case '!':
		if lx.peek() == '=' {
			lx.advance()
			return Token{Kind: NotEq, Text: "!=", Pos: pos}, nil
		}
	}
	return Token{}, fmt.Errorf("scaffold: %s: unexpected character %q", pos, string(c))
}

func (lx *Lexer) lexNumber(pos Pos) (Token, error) {
	start := lx.off
	kind := Int
	for lx.off < len(lx.src) && isDigit(lx.peek()) {
		lx.advance()
	}
	if lx.peek() == '.' && isDigit(lx.peek2()) {
		kind = Float
		lx.advance()
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
	}
	if c := lx.peek(); c == 'e' || c == 'E' {
		saveOff, saveCol := lx.off, lx.col
		lx.advance()
		if lx.peek() == '+' || lx.peek() == '-' {
			lx.advance()
		}
		if isDigit(lx.peek()) {
			kind = Float
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		} else {
			// Not an exponent after all; back out (identifier follows).
			lx.off, lx.col = saveOff, saveCol
		}
	}
	text := lx.src[start:lx.off]
	if strings.HasSuffix(text, ".") {
		return Token{}, fmt.Errorf("scaffold: %s: malformed number %q", pos, text)
	}
	return Token{Kind: kind, Text: text, Pos: pos}, nil
}
