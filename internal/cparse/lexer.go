package cparse

import (
	"strconv"
	"strings"

	"gocured/internal/diag"
)

// Lexer tokenizes C source. It handles //- and /**/-comments, all C89
// operators, numeric/char/string literals, and #pragma lines (other
// preprocessor lines are skipped with a warning; corpus sources are written
// preprocessor-free).
type Lexer struct {
	file  string
	src   string
	pos   int
	line  int
	col   int
	diags *diag.List
}

// NewLexer returns a lexer over src; file is used for positions.
func NewLexer(file, src string, diags *diag.List) *Lexer {
	return &Lexer{file: file, src: src, pos: 0, line: 1, col: 1, diags: diags}
}

func (lx *Lexer) at() diag.Pos { return diag.Pos{File: lx.file, Line: lx.line, Col: lx.col} }

func (lx *Lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *Lexer) advance() byte {
	if lx.pos >= len(lx.src) {
		// Truncated input (e.g. a character literal at EOF): stay put and
		// hand back NUL; the caller reports the malformed token.
		return 0
	}
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipSpace consumes whitespace and comments.
func (lx *Lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.at()
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peekByte() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				lx.diags.Errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token.
func (lx *Lexer) Next() Token {
	lx.skipSpace()
	tok := Token{Line: lx.line, Col: lx.col}
	if lx.pos >= len(lx.src) {
		tok.Kind = EOF
		return tok
	}
	c := lx.peekByte()

	switch {
	case c == '#':
		return lx.lexDirective()
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
			lx.advance()
		}
		word := lx.src[start:lx.pos]
		if kw, ok := keywords[word]; ok {
			tok.Kind = kw
			tok.Text = word
		} else {
			tok.Kind = IDENT
			tok.Text = word
		}
		return tok
	case isDigit(c) || (c == '.' && isDigit(lx.peek2())):
		return lx.lexNumber(tok)
	case c == '\'':
		return lx.lexChar(tok)
	case c == '"':
		return lx.lexString(tok)
	}
	return lx.lexOperator(tok)
}

// lexDirective handles a '#...' line: #pragma becomes a PRAGMA token;
// anything else is skipped with a warning.
func (lx *Lexer) lexDirective() Token {
	pos := lx.at()
	start := lx.pos
	for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
		lx.advance()
	}
	lineText := strings.TrimSpace(lx.src[start:lx.pos])
	if rest, ok := strings.CutPrefix(lineText, "#pragma"); ok {
		return Token{Kind: PRAGMA, Text: strings.TrimSpace(rest), Line: pos.Line, Col: pos.Col}
	}
	lx.diags.Warnf(pos, "ignoring preprocessor line %q (gocured sources are preprocessor-free)", lineText)
	return lx.Next()
}

func (lx *Lexer) lexNumber(tok Token) Token {
	start := lx.pos
	isFloat := false
	if lx.peekByte() == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
		lx.advance()
		lx.advance()
		for lx.pos < len(lx.src) && isHex(lx.peekByte()) {
			lx.advance()
		}
	} else {
		for lx.pos < len(lx.src) && isDigit(lx.peekByte()) {
			lx.advance()
		}
		if lx.peekByte() == '.' {
			isFloat = true
			lx.advance()
			for lx.pos < len(lx.src) && isDigit(lx.peekByte()) {
				lx.advance()
			}
		}
		if b := lx.peekByte(); b == 'e' || b == 'E' {
			isFloat = true
			lx.advance()
			if b := lx.peekByte(); b == '+' || b == '-' {
				lx.advance()
			}
			for lx.pos < len(lx.src) && isDigit(lx.peekByte()) {
				lx.advance()
			}
		}
	}
	text := lx.src[start:lx.pos]
	// Consume and ignore integer/float suffixes (U, L, f).
	for {
		b := lx.peekByte()
		if b == 'u' || b == 'U' || b == 'l' || b == 'L' || b == 'f' || b == 'F' {
			lx.advance()
			continue
		}
		break
	}
	tok.Text = text
	if isFloat {
		tok.Kind = FLOATLIT
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			lx.diags.Errorf(diag.Pos{File: lx.file, Line: tok.Line, Col: tok.Col}, "bad float literal %q", text)
		}
		tok.F = v
		return tok
	}
	tok.Kind = INTLIT
	v, err := strconv.ParseUint(text, 0, 64)
	if err != nil {
		lx.diags.Errorf(diag.Pos{File: lx.file, Line: tok.Line, Col: tok.Col}, "bad integer literal %q", text)
	}
	tok.Int = int64(v)
	return tok
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (lx *Lexer) lexEscape() byte {
	c := lx.advance() // backslash already consumed by caller? no: caller consumed '\\'
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	case 'a':
		return 7
	case 'b':
		return 8
	case 'f':
		return 12
	case 'v':
		return 11
	case 'x':
		v := 0
		for isHex(lx.peekByte()) {
			d := lx.advance()
			v = v*16 + hexVal(d)
		}
		return byte(v)
	default:
		lx.diags.Warnf(lx.at(), "unknown escape \\%c", c)
		return c
	}
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

func (lx *Lexer) lexChar(tok Token) Token {
	lx.advance() // '
	var v byte
	if lx.peekByte() == '\\' {
		lx.advance()
		v = lx.lexEscape()
	} else {
		v = lx.advance()
	}
	if lx.peekByte() == '\'' {
		lx.advance()
	} else {
		lx.diags.Errorf(lx.at(), "unterminated character literal")
	}
	tok.Kind = CHARLIT
	tok.Int = int64(v)
	return tok
}

func (lx *Lexer) lexString(tok Token) Token {
	var b strings.Builder
	for {
		lx.advance() // opening quote
		for lx.pos < len(lx.src) && lx.peekByte() != '"' {
			c := lx.advance()
			if c == '\\' {
				b.WriteByte(lx.lexEscape())
			} else {
				b.WriteByte(c)
			}
			if c == '\n' {
				lx.diags.Errorf(lx.at(), "newline in string literal")
			}
		}
		if lx.pos < len(lx.src) {
			lx.advance() // closing quote
		} else {
			lx.diags.Errorf(lx.at(), "unterminated string literal")
			break
		}
		// Adjacent string literal concatenation.
		save := *lx
		lx.skipSpace()
		if lx.peekByte() != '"' {
			*lx = save
			break
		}
	}
	tok.Kind = STRLIT
	tok.Text = b.String()
	return tok
}

func (lx *Lexer) lexOperator(tok Token) Token {
	c := lx.advance()
	two := func(next byte, with, without TokKind) TokKind {
		if lx.peekByte() == next {
			lx.advance()
			return with
		}
		return without
	}
	switch c {
	case '(':
		tok.Kind = LPAREN
	case ')':
		tok.Kind = RPAREN
	case '{':
		tok.Kind = LBRACE
	case '}':
		tok.Kind = RBRACE
	case '[':
		tok.Kind = LBRACK
	case ']':
		tok.Kind = RBRACK
	case ';':
		tok.Kind = SEMI
	case ',':
		tok.Kind = COMMA
	case '?':
		tok.Kind = QUESTION
	case ':':
		tok.Kind = COLON
	case '~':
		tok.Kind = TILDE
	case '.':
		if lx.peekByte() == '.' && lx.peek2() == '.' {
			lx.advance()
			lx.advance()
			tok.Kind = ELLIPSIS
		} else {
			tok.Kind = DOT
		}
	case '+':
		switch lx.peekByte() {
		case '+':
			lx.advance()
			tok.Kind = INC
		case '=':
			lx.advance()
			tok.Kind = PLUSASSIGN
		default:
			tok.Kind = PLUS
		}
	case '-':
		switch lx.peekByte() {
		case '-':
			lx.advance()
			tok.Kind = DEC
		case '=':
			lx.advance()
			tok.Kind = MINUSASSIGN
		case '>':
			lx.advance()
			tok.Kind = ARROW
		default:
			tok.Kind = MINUS
		}
	case '*':
		tok.Kind = two('=', STARASSIGN, STAR)
	case '/':
		tok.Kind = two('=', SLASHASSIGN, SLASH)
	case '%':
		tok.Kind = two('=', PERCENTASSIGN, PERCENT)
	case '^':
		tok.Kind = two('=', CARETASSIGN, CARET)
	case '!':
		tok.Kind = two('=', NEQ, BANG)
	case '=':
		tok.Kind = two('=', EQEQ, ASSIGN)
	case '&':
		switch lx.peekByte() {
		case '&':
			lx.advance()
			tok.Kind = ANDAND
		case '=':
			lx.advance()
			tok.Kind = AMPASSIGN
		default:
			tok.Kind = AMP
		}
	case '|':
		switch lx.peekByte() {
		case '|':
			lx.advance()
			tok.Kind = OROR
		case '=':
			lx.advance()
			tok.Kind = PIPEASSIGN
		default:
			tok.Kind = PIPE
		}
	case '<':
		switch lx.peekByte() {
		case '<':
			lx.advance()
			tok.Kind = two('=', LSHIFTASSIGN, LSHIFT)
		case '=':
			lx.advance()
			tok.Kind = LE
		default:
			tok.Kind = LT
		}
	case '>':
		switch lx.peekByte() {
		case '>':
			lx.advance()
			tok.Kind = two('=', RSHIFTASSIGN, RSHIFT)
		case '=':
			lx.advance()
			tok.Kind = GE
		default:
			tok.Kind = GT
		}
	default:
		lx.diags.Errorf(diag.Pos{File: lx.file, Line: tok.Line, Col: tok.Col},
			"unexpected character %q", c)
		return lx.Next()
	}
	tok.Text = tok.Kind.String()
	return tok
}

// LexAll tokenizes the whole input (testing helper).
func LexAll(file, src string, diags *diag.List) []Token {
	lx := NewLexer(file, src, diags)
	var out []Token
	for {
		t := lx.Next()
		out = append(out, t)
		if t.Kind == EOF {
			return out
		}
	}
}
