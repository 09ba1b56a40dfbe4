package cparse

import "fmt"

// TokKind enumerates lexical token kinds for the C subset.
type TokKind int

const (
	EOF TokKind = iota
	IDENT
	INTLIT
	FLOATLIT
	CHARLIT
	STRLIT
	PRAGMA // a full #pragma line; Text holds the content after "#pragma"

	// Punctuation and operators.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	SEMI     // ;
	COMMA    // ,
	DOT      // .
	ARROW    // ->
	ELLIPSIS // ...

	PLUS     // +
	MINUS    // -
	STAR     // *
	SLASH    // /
	PERCENT  // %
	AMP      // &
	PIPE     // |
	CARET    // ^
	TILDE    // ~
	BANG     // !
	LSHIFT   // <<
	RSHIFT   // >>
	LT       // <
	GT       // >
	LE       // <=
	GE       // >=
	EQEQ     // ==
	NEQ      // !=
	ANDAND   // &&
	OROR     // ||
	QUESTION // ?
	COLON    // :
	INC      // ++
	DEC      // --

	ASSIGN        // =
	PLUSASSIGN    // +=
	MINUSASSIGN   // -=
	STARASSIGN    // *=
	SLASHASSIGN   // /=
	PERCENTASSIGN // %=
	AMPASSIGN     // &=
	PIPEASSIGN    // |=
	CARETASSIGN   // ^=
	LSHIFTASSIGN  // <<=
	RSHIFTASSIGN  // >>=

	// Keywords.
	KwVoid
	KwChar
	KwShort
	KwInt
	KwLong
	KwFloat
	KwDouble
	KwSigned
	KwUnsigned
	KwStruct
	KwUnion
	KwEnum
	KwTypedef
	KwExtern
	KwStatic
	KwConst
	KwVolatile
	KwIf
	KwElse
	KwWhile
	KwDo
	KwFor
	KwReturn
	KwBreak
	KwContinue
	KwSwitch
	KwCase
	KwDefault
	KwSizeof
	KwGoto

	// CCured extensions.
	KwSafe        // __SAFE
	KwSeq         // __SEQ
	KwWild        // __WILD
	KwRtti        // __RTTI
	KwSplit       // __SPLIT
	KwNoSplit     // __NOSPLIT
	KwTrustedCast // __trusted_cast
)

// tokNames holds the printable name of every token kind, indexed by kind;
// a keyword's name is its spelling.
var tokNames = [...]string{
	EOF: "EOF", IDENT: "identifier", INTLIT: "integer literal",
	FLOATLIT: "float literal", CHARLIT: "char literal", STRLIT: "string literal",
	PRAGMA: "#pragma",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}", LBRACK: "[", RBRACK: "]",
	SEMI: ";", COMMA: ",", DOT: ".", ARROW: "->", ELLIPSIS: "...",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	AMP: "&", PIPE: "|", CARET: "^", TILDE: "~", BANG: "!",
	LSHIFT: "<<", RSHIFT: ">>", LT: "<", GT: ">", LE: "<=", GE: ">=",
	EQEQ: "==", NEQ: "!=", ANDAND: "&&", OROR: "||",
	QUESTION: "?", COLON: ":", INC: "++", DEC: "--",
	ASSIGN: "=", PLUSASSIGN: "+=", MINUSASSIGN: "-=", STARASSIGN: "*=",
	SLASHASSIGN: "/=", PERCENTASSIGN: "%=", AMPASSIGN: "&=",
	PIPEASSIGN: "|=", CARETASSIGN: "^=", LSHIFTASSIGN: "<<=", RSHIFTASSIGN: ">>=",

	KwVoid: "void", KwChar: "char", KwShort: "short", KwInt: "int",
	KwLong: "long", KwFloat: "float", KwDouble: "double",
	KwSigned: "signed", KwUnsigned: "unsigned",
	KwStruct: "struct", KwUnion: "union", KwEnum: "enum",
	KwTypedef: "typedef", KwExtern: "extern", KwStatic: "static",
	KwConst: "const", KwVolatile: "volatile",
	KwIf: "if", KwElse: "else", KwWhile: "while", KwDo: "do", KwFor: "for",
	KwReturn: "return", KwBreak: "break", KwContinue: "continue",
	KwSwitch: "switch", KwCase: "case", KwDefault: "default",
	KwSizeof: "sizeof", KwGoto: "goto",
	KwSafe: "__SAFE", KwSeq: "__SEQ", KwWild: "__WILD", KwRtti: "__RTTI",
	KwSplit: "__SPLIT", KwNoSplit: "__NOSPLIT",
	KwTrustedCast: "__trusted_cast",
}

// keywords maps each keyword's spelling to its kind.
var keywords = func() map[string]TokKind {
	m := make(map[string]TokKind, KwTrustedCast-KwVoid+1)
	for k := KwVoid; k <= KwTrustedCast; k++ {
		m[tokNames[k]] = k
	}
	return m
}()

// String returns a printable name for the token kind.
func (k TokKind) String() string {
	if k >= 0 && int(k) < len(tokNames) {
		return tokNames[k]
	}
	return fmt.Sprintf("tok(%d)", int(k))
}

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string  // IDENT, PRAGMA, STRLIT (decoded), and raw spelling for literals
	Int  int64   // INTLIT, CHARLIT value
	F    float64 // FLOATLIT value
	Line int
	Col  int
}
