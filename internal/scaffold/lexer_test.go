package scaffold

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("module main() { qbit q[4]; H(q[0]); }")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{
		KwModule, Ident, LParen, RParen, LBrace,
		KwQbit, Ident, LBracket, Int, RBracket, Semicolon,
		Ident, LParen, Ident, LBracket, Int, RBracket, RParen, Semicolon,
		RBrace, EOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := Lex("+ - * / % << < <= > >= == != ++ = : ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{Plus, Minus, Star, Slash, Percent, Shl, Lt, Le, Gt, Ge, EqEq, NotEq, PlusPlus, Assign, Colon, Comma, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
	}{
		{"42", Int},
		{"0", Int},
		{"3.14", Float},
		{"0.5", Float},
		{"1e10", Float},
		{"2.5e-3", Float},
		{"7E+2", Float},
	}
	for _, c := range cases {
		toks, err := Lex(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if toks[0].Kind != c.kind || toks[0].Text != c.src {
			t.Errorf("%q: got %v %q", c.src, toks[0].Kind, toks[0].Text)
		}
	}
}

func TestLexExponentBackout(t *testing.T) {
	// "1e" followed by an identifier char is Int then Ident.
	toks, err := Lex("3express")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != Int || toks[0].Text != "3" {
		t.Fatalf("got %v %q", toks[0].Kind, toks[0].Text)
	}
	if toks[1].Kind != Ident || toks[1].Text != "express" {
		t.Fatalf("got %v %q", toks[1].Kind, toks[1].Text)
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("a // line comment\nb /* block\ncomment */ c")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 { // a b c EOF
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[2].Pos.Line != 3 {
		t.Errorf("c should be on line 3, got %d", toks[2].Pos.Line)
	}
}

func TestLexUnterminatedComment(t *testing.T) {
	if _, err := Lex("a /* never ends"); err == nil {
		t.Error("accepted unterminated block comment")
	}
}

func TestLexKeywords(t *testing.T) {
	toks, err := Lex("module qbit cbit for if else modular")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KwModule, KwQbit, KwCbit, KwFor, KwIf, KwElse, Ident}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexBadChar(t *testing.T) {
	if _, err := Lex("a @ b"); err == nil {
		t.Error("accepted '@'")
	}
	if _, err := Lex("a ! b"); err == nil {
		t.Error("accepted bare '!'")
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

// Property: lexing never panics and always terminates with EOF on
// printable-ASCII inputs built from the language alphabet.
func TestLexQuickTermination(t *testing.T) {
	alphabet := "abqmodule fori()[]{};,+-*/%<>=!0123456789. \n\t"
	f := func(seed []byte) bool {
		var sb strings.Builder
		for _, b := range seed {
			sb.WriteByte(alphabet[int(b)%len(alphabet)])
		}
		toks, err := Lex(sb.String())
		if err != nil {
			return true // errors are fine; crashes are not
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Lex tokenizes the entire input, ending with an EOF token.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == EOF {
			return toks, nil
		}
	}
}
