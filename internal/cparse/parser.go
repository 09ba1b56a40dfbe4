package cparse

import (
	"fmt"
	"strings"

	"gocured/internal/ctypes"
	"gocured/internal/diag"
)

// Parser is a recursive-descent parser for the gocured C subset. It resolves
// types during parsing (maintaining typedef names, struct/union tags, and
// enum constants), which is required to disambiguate C's grammar.
//
// Simplifications relative to full C (documented limits; the corpus and
// examples stay within them): typedef names are file-scoped (locals must not
// shadow typedef names), no bitfields, no K&R definitions, no goto/labels.
type Parser struct {
	lx    *Lexer
	diags *diag.List

	tok  Token // current token
	next Token // one-token lookahead
	file string

	typedefs map[string]*ctypes.Type
	tags     map[string]*ctypes.StructInfo
	enums    map[string]int64

	out *File
}

// Parse parses one translation unit.
func Parse(file, src string, diags *diag.List) *File {
	p := &Parser{
		lx:       NewLexer(file, src, diags),
		diags:    diags,
		file:     file,
		typedefs: make(map[string]*ctypes.Type),
		tags:     make(map[string]*ctypes.StructInfo),
		enums:    make(map[string]int64),
		out:      &File{Name: file},
	}
	p.tok = p.lx.Next()
	p.next = p.lx.Next()
	p.parseTranslationUnit()
	return p.out
}

func (p *Parser) pos() diag.Pos { return diag.Pos{File: p.file, Line: p.tok.Line, Col: p.tok.Col} }

func (p *Parser) advance() Token {
	t := p.tok
	p.tok = p.next
	p.next = p.lx.Next()
	return t
}

func (p *Parser) accept(k TokKind) bool {
	if p.tok.Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) Token {
	if p.tok.Kind != k {
		p.diags.Errorf(p.pos(), "expected %s, found %s %q", k, p.tok.Kind, p.tok.Text)
		// Error recovery: synthesize the token without consuming.
		return Token{Kind: k, Line: p.tok.Line, Col: p.tok.Col}
	}
	return p.advance()
}

// ---- Top level ----

func (p *Parser) parseTranslationUnit() {
	for p.tok.Kind != EOF {
		switch p.tok.Kind {
		case PRAGMA:
			p.parsePragma()
		case SEMI:
			p.advance()
		default:
			p.parseExternalDecl()
		}
	}
}

// parsePragma handles #pragma ccuredWrapperOf("wrapper", "wrapped"); other
// pragmas are ignored with a note.
func (p *Parser) parsePragma() {
	t := p.advance()
	text := t.Text
	if rest, ok := strings.CutPrefix(text, "ccuredWrapperOf"); ok {
		var w, f string
		rest = strings.TrimSpace(rest)
		if n, err := fmt.Sscanf(rest, "(%q, %q)", &w, &f); n == 2 && err == nil {
			p.out.Wrappers = append(p.out.Wrappers,
				&WrapperPragma{P: diag.Pos{File: p.file, Line: t.Line, Col: t.Col}, Wrapper: w, Wrapped: f})
			return
		}
		p.diags.Errorf(diag.Pos{File: p.file, Line: t.Line, Col: t.Col},
			"malformed ccuredWrapperOf pragma: %q", text)
		return
	}
	p.diags.Notef(diag.Pos{File: p.file, Line: t.Line, Col: t.Col}, "ignoring #pragma %s", text)
}

// parseExternalDecl parses a function definition, prototype, global
// variable declaration, typedef, or bare struct/enum definition.
func (p *Parser) parseExternalDecl() {
	pos := p.pos()
	base, storage, ok := p.parseDeclSpecifiers()
	if !ok {
		p.diags.Errorf(pos, "expected declaration, found %s %q", p.tok.Kind, p.tok.Text)
		p.advance()
		return
	}
	if p.tok.Kind == SEMI {
		p.advance() // bare "struct S { ... };" or "enum {...};"
		return
	}
	for {
		dpos := p.pos()
		name, ty := p.parseDeclarator(base)
		if name == "" {
			p.diags.Errorf(dpos, "declarator requires a name")
		}
		if storage == SCTypedef {
			p.typedefs[name] = ty
		} else if ty.Kind == ctypes.Func {
			fd := &FuncDef{P: dpos, Name: name, Type: ty, Storage: storage}
			if p.tok.Kind == LBRACE {
				fd.Body = p.parseBlock()
				p.out.Funcs = append(p.out.Funcs, fd)
				return // no comma-separated declarators after a body
			}
			p.out.Funcs = append(p.out.Funcs, fd) // prototype
		} else {
			vd := &VarDecl{P: dpos, Name: name, Type: ty, Storage: storage}
			if p.accept(ASSIGN) {
				vd.Init = p.parseInitializer()
			}
			p.out.Globals = append(p.out.Globals, vd)
		}
		if !p.accept(COMMA) {
			break
		}
	}
	p.expect(SEMI)
}

// ---- Declaration specifiers and declarators ----

// startsType reports whether the current token can begin a type name.
func (p *Parser) startsType() bool {
	switch p.tok.Kind {
	case KwVoid, KwChar, KwShort, KwInt, KwLong, KwFloat, KwDouble,
		KwSigned, KwUnsigned, KwStruct, KwUnion, KwEnum, KwConst, KwVolatile,
		KwSplit, KwNoSplit:
		return true
	case IDENT:
		_, ok := p.typedefs[p.tok.Text]
		return ok
	}
	return false
}

// parseDeclSpecifiers parses storage class + type specifiers. Returns the
// base type, the storage class, and whether any specifier was seen.
func (p *Parser) parseDeclSpecifiers() (*ctypes.Type, StorageClass, bool) {
	storage := SCNone
	split := ctypes.SAnnNone
	var (
		seenAny                    bool
		unsigned, signed           bool
		nChar, nShort, nInt, nLong int
		nFloat, nDouble, nVoid     int
		su                         *ctypes.StructInfo
		tdef                       *ctypes.Type
	)
loop:
	for {
		switch p.tok.Kind {
		case KwTypedef:
			storage = SCTypedef
			p.advance()
		case KwExtern:
			storage = SCExtern
			p.advance()
		case KwStatic:
			storage = SCStatic
			p.advance()
		case KwConst, KwVolatile:
			p.advance()
		case KwSplit:
			split = ctypes.SAnnSplit
			p.advance()
		case KwNoSplit:
			split = ctypes.SAnnNoSplit
			p.advance()
		case KwUnsigned:
			unsigned = true
			seenAny = true
			p.advance()
		case KwSigned:
			signed = true
			seenAny = true
			p.advance()
		case KwChar:
			nChar++
			seenAny = true
			p.advance()
		case KwShort:
			nShort++
			seenAny = true
			p.advance()
		case KwInt:
			nInt++
			seenAny = true
			p.advance()
		case KwLong:
			nLong++
			seenAny = true
			p.advance()
		case KwFloat:
			nFloat++
			seenAny = true
			p.advance()
		case KwDouble:
			nDouble++
			seenAny = true
			p.advance()
		case KwVoid:
			nVoid++
			seenAny = true
			p.advance()
		case KwStruct, KwUnion:
			su = p.parseStructSpecifier(p.tok.Kind == KwUnion)
			seenAny = true
		case KwEnum:
			p.parseEnumSpecifier()
			nInt++ // enums are ints
			seenAny = true
		case IDENT:
			if t, ok := p.typedefs[p.tok.Text]; ok && !seenAny && tdef == nil {
				tdef = t
				seenAny = true
				p.advance()
				continue
			}
			break loop
		default:
			break loop
		}
	}
	if !seenAny && storage == SCNone && split == ctypes.SAnnNone {
		return nil, SCNone, false
	}

	var base *ctypes.Type
	switch {
	case tdef != nil:
		base = tdef // typedefs share the Type value (shared qualifier nodes)
	case su != nil:
		base = ctypes.StructType(su)
	case nVoid > 0:
		base = ctypes.VoidType()
	case nDouble > 0:
		base = ctypes.FloatType(8)
	case nFloat > 0:
		base = ctypes.FloatType(4)
	case nChar > 0:
		base = ctypes.IntType(1, !unsigned)
	case nShort > 0:
		base = ctypes.IntType(2, !unsigned)
	case nLong >= 2:
		base = ctypes.IntType(8, !unsigned)
	case nLong == 1:
		base = ctypes.IntType(4, !unsigned) // ILP32 long
	case nInt > 0 || signed || unsigned:
		base = ctypes.IntType(4, !unsigned)
	default:
		base = ctypes.IntT()
	}
	if split != ctypes.SAnnNone && base != tdef {
		base.SplitAnnot = split
	} else if split != ctypes.SAnnNone {
		// Apply the split annotation to a fresh copy so we do not mutate
		// the shared typedef occurrence.
		cp := *base
		cp.SplitAnnot = split
		base = &cp
	}
	return base, storage, true
}

// parseStructSpecifier parses struct/union specifiers:
// struct TAG, struct TAG {...}, struct {...}.
func (p *Parser) parseStructSpecifier(union bool) *ctypes.StructInfo {
	p.advance() // struct or union
	name := ""
	if p.tok.Kind == IDENT {
		name = p.advance().Text
	}
	su := p.tags[name]
	if su == nil || name == "" {
		su = ctypes.NewStruct(name, union, int32(len(p.out.Structs)))
		p.out.Structs = append(p.out.Structs, su)
		if name != "" {
			p.tags[name] = su
		}
	}
	if p.tok.Kind != LBRACE {
		return su
	}
	if su.Complete {
		p.diags.Errorf(p.pos(), "redefinition of %s", name)
	}
	p.advance() // {
	var fields []*ctypes.Field
	for p.tok.Kind != RBRACE && p.tok.Kind != EOF {
		base, storage, ok := p.parseDeclSpecifiers()
		if !ok {
			p.diags.Errorf(p.pos(), "expected field declaration")
			p.advance()
			continue
		}
		if storage != SCNone {
			p.diags.Errorf(p.pos(), "storage class not allowed on fields")
		}
		for {
			fname, fty := p.parseDeclarator(base)
			if fname == "" {
				p.diags.Errorf(p.pos(), "field requires a name")
			}
			if fty.Kind == ctypes.Func {
				p.diags.Errorf(p.pos(), "field %s has function type", fname)
				fty = ctypes.PointerTo(fty)
			}
			fields = append(fields, &ctypes.Field{Name: fname, Type: fty})
			if !p.accept(COMMA) {
				break
			}
		}
		p.expect(SEMI)
	}
	p.expect(RBRACE)
	su.Define(fields)
	return su
}

// parseEnumSpecifier parses enum specifiers, registering constants.
func (p *Parser) parseEnumSpecifier() {
	p.advance() // enum
	if p.tok.Kind == IDENT {
		p.advance() // tag (enums are just ints; tags are not tracked)
	}
	if p.tok.Kind != LBRACE {
		return
	}
	p.advance()
	val := int64(0)
	for p.tok.Kind != RBRACE && p.tok.Kind != EOF {
		name := p.expect(IDENT).Text
		if p.accept(ASSIGN) {
			val = p.parseConstExpr()
		}
		p.enums[name] = val
		val++
		if !p.accept(COMMA) {
			break
		}
	}
	p.expect(RBRACE)
}

// parseDeclarator parses a (possibly abstract) declarator applied to base,
// returning the declared name ("" for abstract) and the full type.
func (p *Parser) parseDeclarator(base *ctypes.Type) (string, *ctypes.Type) {
	// Pointers: each '*' may be followed by kind/split annotations and
	// const/volatile.
	for p.tok.Kind == STAR {
		p.advance()
		pt := ctypes.PointerTo(base)
	annLoop:
		for {
			switch p.tok.Kind {
			case KwSafe:
				pt.Ann = ctypes.AnnSafe
				p.advance()
			case KwSeq:
				pt.Ann = ctypes.AnnSeq
				p.advance()
			case KwWild:
				pt.Ann = ctypes.AnnWild
				p.advance()
			case KwRtti:
				pt.Ann = ctypes.AnnRtti
				p.advance()
			case KwSplit:
				pt.SplitAnnot = ctypes.SAnnSplit
				p.advance()
			case KwNoSplit:
				pt.SplitAnnot = ctypes.SAnnNoSplit
				p.advance()
			case KwConst, KwVolatile:
				p.advance()
			default:
				break annLoop
			}
		}
		base = pt
	}
	return p.parseDirectDeclarator(base)
}

// parseDirectDeclarator handles names, parenthesized declarators, arrays,
// and function parameter lists.
func (p *Parser) parseDirectDeclarator(base *ctypes.Type) (string, *ctypes.Type) {
	name := ""
	// inner is a pending parenthesized declarator; its suffixes must be
	// applied to the *fully suffixed* outer type. We implement the
	// standard algorithm: remember the token range? Instead we parse the
	// inner declarator abstractly against a placeholder and patch.
	var innerWrap func(*ctypes.Type) *ctypes.Type

	switch p.tok.Kind {
	case IDENT:
		name = p.advance().Text
	case LPAREN:
		// Could be "(declarator)" or, for abstract function types, a
		// parameter list directly. It is a nested declarator if the next
		// token is '*' or IDENT or '('.
		if p.next.Kind == STAR || p.next.Kind == IDENT || p.next.Kind == LPAREN {
			p.advance() // (
			// Parse the nested declarator against a placeholder type; we
			// substitute the real base (with suffixes) afterwards.
			placeholder := &ctypes.Type{Kind: ctypes.Void}
			n, t := p.parseDeclarator(placeholder)
			name = n
			p.expect(RPAREN)
			innerWrap = func(real *ctypes.Type) *ctypes.Type {
				return substPlaceholder(t, placeholder, real)
			}
		}
	}

	// Suffixes: arrays and parameter lists, applied left to right; for
	// multidimensional arrays the first suffix is the outermost.
	ty := p.parseDeclSuffixes(base)
	if innerWrap != nil {
		ty = innerWrap(ty)
	}
	return name, ty
}

func (p *Parser) parseDeclSuffixes(base *ctypes.Type) *ctypes.Type {
	switch p.tok.Kind {
	case LBRACK:
		p.advance()
		n := -1
		if p.tok.Kind != RBRACK {
			n = int(p.parseConstExpr())
			if n < 0 {
				p.diags.Errorf(p.pos(), "negative array size")
				n = 0
			}
		}
		p.expect(RBRACK)
		elem := p.parseDeclSuffixes(base)
		return ctypes.ArrayOf(elem, n)
	case LPAREN:
		p.advance()
		params, names, variadic := p.parseParamList()
		p.expect(RPAREN)
		ret := p.parseDeclSuffixes(base)
		return ctypes.FuncType(ret, params, names, variadic)
	}
	return base
}

// substPlaceholder rebuilds t with placeholder replaced by real. Used for
// parenthesized declarators like (*f)(int).
func substPlaceholder(t, placeholder, real *ctypes.Type) *ctypes.Type {
	if t == placeholder {
		return real
	}
	switch t.Kind {
	case ctypes.Ptr:
		cp := *t
		cp.Elem = substPlaceholder(t.Elem, placeholder, real)
		return &cp
	case ctypes.Array:
		cp := *t
		cp.Elem = substPlaceholder(t.Elem, placeholder, real)
		return &cp
	case ctypes.Func:
		cp := *t
		fn := *t.Fn
		fn.Ret = substPlaceholder(fn.Ret, placeholder, real)
		cp.Fn = &fn
		return &cp
	}
	return t
}

// parseParamList parses a function parameter list (already inside parens).
func (p *Parser) parseParamList() (params []*ctypes.Type, names []string, variadic bool) {
	if p.tok.Kind == RPAREN {
		return nil, nil, false
	}
	// (void) means no parameters.
	if p.tok.Kind == KwVoid && p.next.Kind == RPAREN {
		p.advance()
		return nil, nil, false
	}
	for {
		if p.tok.Kind == ELLIPSIS {
			p.advance()
			variadic = true
			break
		}
		base, storage, ok := p.parseDeclSpecifiers()
		if !ok {
			p.diags.Errorf(p.pos(), "expected parameter declaration")
			p.advance()
			break
		}
		if storage != SCNone {
			p.diags.Errorf(p.pos(), "storage class not allowed on parameters")
		}
		name, ty := p.parseDeclarator(base)
		ty = ty.Decay() // arrays decay to pointers in parameter lists
		if ty.Kind == ctypes.Func {
			ty = ctypes.PointerTo(ty) // functions decay to function pointers
		}
		params = append(params, ty)
		names = append(names, name)
		if !p.accept(COMMA) {
			break
		}
	}
	return params, names, variadic
}

// parseTypeName parses a type-name (for casts and sizeof): specifiers plus
// an abstract declarator.
func (p *Parser) parseTypeName() *ctypes.Type {
	base, storage, ok := p.parseDeclSpecifiers()
	if !ok {
		p.diags.Errorf(p.pos(), "expected type name")
		return ctypes.IntT()
	}
	if storage != SCNone {
		p.diags.Errorf(p.pos(), "storage class not allowed in type name")
	}
	name, ty := p.parseDeclarator(base)
	if name != "" {
		p.diags.Errorf(p.pos(), "unexpected name %q in type name", name)
	}
	return ty
}

// ---- Initializers ----

func (p *Parser) parseInitializer() *Initializer {
	pos := p.pos()
	if p.tok.Kind == LBRACE {
		p.advance()
		init := &Initializer{P: pos, IsList: true}
		for p.tok.Kind != RBRACE && p.tok.Kind != EOF {
			init.List = append(init.List, p.parseInitializer())
			if !p.accept(COMMA) {
				break
			}
		}
		p.expect(RBRACE)
		return init
	}
	return &Initializer{P: pos, Expr: p.parseAssignExpr()}
}

// ---- Statements ----

func (p *Parser) parseBlock() *Block {
	b := &Block{stmtBase: stmtBase{P: p.pos()}}
	p.expect(LBRACE)
	for p.tok.Kind != RBRACE && p.tok.Kind != EOF {
		b.Stmts = append(b.Stmts, p.parseStmt())
	}
	p.expect(RBRACE)
	return b
}

func (p *Parser) parseStmt() Stmt {
	pos := p.pos()
	switch p.tok.Kind {
	case LBRACE:
		return p.parseBlock()
	case SEMI:
		p.advance()
		return &Empty{stmtBase{pos}}
	case KwIf:
		p.advance()
		p.expect(LPAREN)
		cond := p.parseExpr()
		p.expect(RPAREN)
		then := p.parseStmt()
		var els Stmt
		if p.accept(KwElse) {
			els = p.parseStmt()
		}
		return &If{stmtBase: stmtBase{pos}, Cond: cond, Then: then, Else: els}
	case KwWhile:
		p.advance()
		p.expect(LPAREN)
		cond := p.parseExpr()
		p.expect(RPAREN)
		return &While{stmtBase: stmtBase{pos}, Cond: cond, Body: p.parseStmt()}
	case KwDo:
		p.advance()
		body := p.parseStmt()
		p.expect(KwWhile)
		p.expect(LPAREN)
		cond := p.parseExpr()
		p.expect(RPAREN)
		p.expect(SEMI)
		return &DoWhile{stmtBase: stmtBase{pos}, Body: body, Cond: cond}
	case KwFor:
		p.advance()
		p.expect(LPAREN)
		var init Stmt
		if p.tok.Kind != SEMI {
			if p.startsType() {
				init = p.parseDeclStmt()
			} else {
				e := p.parseExpr()
				p.expect(SEMI)
				init = &ExprStmt{stmtBase{pos}, e}
			}
		} else {
			p.advance()
		}
		var cond Expr
		if p.tok.Kind != SEMI {
			cond = p.parseExpr()
		}
		p.expect(SEMI)
		var post Expr
		if p.tok.Kind != RPAREN {
			post = p.parseExpr()
		}
		p.expect(RPAREN)
		return &For{stmtBase: stmtBase{pos}, Init: init, Cond: cond, Post: post, Body: p.parseStmt()}
	case KwReturn:
		p.advance()
		var x Expr
		if p.tok.Kind != SEMI {
			x = p.parseExpr()
		}
		p.expect(SEMI)
		return &Return{stmtBase{pos}, x}
	case KwBreak:
		p.advance()
		p.expect(SEMI)
		return &Break{stmtBase{pos}}
	case KwContinue:
		p.advance()
		p.expect(SEMI)
		return &Continue{stmtBase{pos}}
	case KwSwitch:
		return p.parseSwitch()
	case KwGoto:
		p.diags.Errorf(pos, "goto is not supported by the gocured C subset")
		p.advance()
		if p.tok.Kind == IDENT {
			p.advance()
		}
		p.expect(SEMI)
		return &Empty{stmtBase{pos}}
	default:
		if p.startsType() {
			return p.parseDeclStmt()
		}
		e := p.parseExpr()
		p.expect(SEMI)
		return &ExprStmt{stmtBase{pos}, e}
	}
}

// parseDeclStmt parses a local declaration statement (consumes ';').
func (p *Parser) parseDeclStmt() *DeclStmt {
	pos := p.pos()
	base, storage, ok := p.parseDeclSpecifiers()
	if !ok {
		p.diags.Errorf(pos, "expected declaration")
		p.advance()
		return &DeclStmt{stmtBase: stmtBase{pos}}
	}
	if storage == SCTypedef {
		p.diags.Errorf(pos, "local typedefs are not supported")
	}
	ds := &DeclStmt{stmtBase: stmtBase{pos}}
	for {
		dpos := p.pos()
		name, ty := p.parseDeclarator(base)
		vd := &VarDecl{P: dpos, Name: name, Type: ty, Storage: storage}
		if p.accept(ASSIGN) {
			vd.Init = p.parseInitializer()
		}
		ds.Decls = append(ds.Decls, vd)
		if !p.accept(COMMA) {
			break
		}
	}
	p.expect(SEMI)
	return ds
}

func (p *Parser) parseSwitch() Stmt {
	pos := p.pos()
	p.advance() // switch
	p.expect(LPAREN)
	x := p.parseExpr()
	p.expect(RPAREN)
	p.expect(LBRACE)
	sw := &Switch{stmtBase: stmtBase{pos}, X: x}
	var cur *SwitchCase
	for p.tok.Kind != RBRACE && p.tok.Kind != EOF {
		switch p.tok.Kind {
		case KwCase:
			p.advance()
			v := p.parseConstExpr()
			p.expect(COLON)
			cur = &SwitchCase{Val: v}
			sw.Cases = append(sw.Cases, cur)
		case KwDefault:
			p.advance()
			p.expect(COLON)
			cur = &SwitchCase{IsDefault: true}
			sw.Cases = append(sw.Cases, cur)
		default:
			if cur == nil {
				p.diags.Errorf(p.pos(), "statement before first case in switch")
				cur = &SwitchCase{IsDefault: false}
				sw.Cases = append(sw.Cases, cur)
			}
			cur.Stmts = append(cur.Stmts, p.parseStmt())
		}
	}
	p.expect(RBRACE)
	return sw
}

// ---- Expressions ----

func (p *Parser) parseExpr() Expr {
	e := p.parseAssignExpr()
	for p.tok.Kind == COMMA {
		pos := p.pos()
		p.advance()
		r := p.parseAssignExpr()
		e = &Comma{exprBase: exprBase{P: pos}, X: e, Y: r}
	}
	return e
}

var assignOps = map[TokKind]BinaryOp{
	PLUSASSIGN: Add, MINUSASSIGN: Sub, STARASSIGN: Mul, SLASHASSIGN: Div,
	PERCENTASSIGN: Rem, AMPASSIGN: BitAnd, PIPEASSIGN: BitOr,
	CARETASSIGN: BitXor, LSHIFTASSIGN: Shl, RSHIFTASSIGN: Shr,
}

func (p *Parser) parseAssignExpr() Expr {
	l := p.parseCondExpr()
	pos := p.pos()
	if p.tok.Kind == ASSIGN {
		p.advance()
		r := p.parseAssignExpr()
		return &Assign{exprBase: exprBase{P: pos}, Op: -1, L: l, R: r}
	}
	if op, ok := assignOps[p.tok.Kind]; ok {
		p.advance()
		r := p.parseAssignExpr()
		return &Assign{exprBase: exprBase{P: pos}, Op: op, L: l, R: r}
	}
	return l
}

func (p *Parser) parseCondExpr() Expr {
	c := p.parseBinaryExpr(0)
	if p.tok.Kind != QUESTION {
		return c
	}
	pos := p.pos()
	p.advance()
	t := p.parseExpr()
	p.expect(COLON)
	f := p.parseCondExpr()
	return &Cond{exprBase: exprBase{P: pos}, C: c, T: t, F: f}
}

// binary operator precedence table (higher binds tighter).
var binPrec = map[TokKind]int{
	OROR: 1, ANDAND: 2, PIPE: 3, CARET: 4, AMP: 5,
	EQEQ: 6, NEQ: 6,
	LT: 7, GT: 7, LE: 7, GE: 7,
	LSHIFT: 8, RSHIFT: 8,
	PLUS: 9, MINUS: 9,
	STAR: 10, SLASH: 10, PERCENT: 10,
}

var binOpOf = map[TokKind]BinaryOp{
	OROR: LogOr, ANDAND: LogAnd, PIPE: BitOr, CARET: BitXor, AMP: BitAnd,
	EQEQ: Eq, NEQ: Ne, LT: Lt, GT: Gt, LE: Le, GE: Ge,
	LSHIFT: Shl, RSHIFT: Shr, PLUS: Add, MINUS: Sub,
	STAR: Mul, SLASH: Div, PERCENT: Rem,
}

func (p *Parser) parseBinaryExpr(minPrec int) Expr {
	l := p.parseCastExpr()
	for {
		prec, ok := binPrec[p.tok.Kind]
		if !ok || prec < minPrec {
			return l
		}
		op := binOpOf[p.tok.Kind]
		pos := p.pos()
		p.advance()
		r := p.parseBinaryExpr(prec + 1)
		l = &Binary{exprBase: exprBase{P: pos}, Op: op, X: l, Y: r}
	}
}

func (p *Parser) parseCastExpr() Expr {
	if p.tok.Kind == LPAREN && p.nextStartsType() {
		pos := p.pos()
		p.advance()
		ty := p.parseTypeName()
		p.expect(RPAREN)
		// Disambiguate "(T)(x)" cast from compound literal (unsupported).
		x := p.parseCastExpr()
		return &Cast{exprBase: exprBase{P: pos}, To: ty, X: x}
	}
	return p.parseUnaryExpr()
}

// nextStartsType reports whether the token after '(' begins a type name.
func (p *Parser) nextStartsType() bool {
	switch p.next.Kind {
	case KwVoid, KwChar, KwShort, KwInt, KwLong, KwFloat, KwDouble,
		KwSigned, KwUnsigned, KwStruct, KwUnion, KwEnum, KwConst, KwVolatile,
		KwSplit, KwNoSplit:
		return true
	case IDENT:
		_, ok := p.typedefs[p.next.Text]
		return ok
	}
	return false
}

func (p *Parser) parseUnaryExpr() Expr {
	pos := p.pos()
	switch p.tok.Kind {
	case INC:
		p.advance()
		return &Unary{exprBase: exprBase{P: pos}, Op: PreInc, X: p.parseUnaryExpr()}
	case DEC:
		p.advance()
		return &Unary{exprBase: exprBase{P: pos}, Op: PreDec, X: p.parseUnaryExpr()}
	case PLUS:
		p.advance()
		return p.parseCastExpr()
	case MINUS:
		p.advance()
		return &Unary{exprBase: exprBase{P: pos}, Op: Neg, X: p.parseCastExpr()}
	case BANG:
		p.advance()
		return &Unary{exprBase: exprBase{P: pos}, Op: Not, X: p.parseCastExpr()}
	case TILDE:
		p.advance()
		return &Unary{exprBase: exprBase{P: pos}, Op: BitNot, X: p.parseCastExpr()}
	case STAR:
		p.advance()
		return &Unary{exprBase: exprBase{P: pos}, Op: Deref, X: p.parseCastExpr()}
	case AMP:
		p.advance()
		return &Unary{exprBase: exprBase{P: pos}, Op: AddrOf, X: p.parseCastExpr()}
	case KwSizeof:
		p.advance()
		if p.tok.Kind == LPAREN && p.nextStartsType() {
			p.advance()
			ty := p.parseTypeName()
			p.expect(RPAREN)
			return &SizeofExpr{exprBase: exprBase{P: pos}, OfType: ty}
		}
		return &SizeofExpr{exprBase: exprBase{P: pos}, X: p.parseUnaryExpr()}
	case KwTrustedCast:
		p.advance()
		p.expect(LPAREN)
		ty := p.parseTypeName()
		p.expect(COMMA)
		x := p.parseAssignExpr()
		p.expect(RPAREN)
		return &Cast{exprBase: exprBase{P: pos}, To: ty, X: x, Trusted: true}
	}
	return p.parsePostfixExpr()
}

func (p *Parser) parsePostfixExpr() Expr {
	e := p.parsePrimaryExpr()
	for {
		pos := p.pos()
		switch p.tok.Kind {
		case LBRACK:
			p.advance()
			idx := p.parseExpr()
			p.expect(RBRACK)
			e = &Index{exprBase: exprBase{P: pos}, X: e, I: idx}
		case LPAREN:
			p.advance()
			var args []Expr
			for p.tok.Kind != RPAREN && p.tok.Kind != EOF {
				args = append(args, p.parseAssignExpr())
				if !p.accept(COMMA) {
					break
				}
			}
			p.expect(RPAREN)
			e = &Call{exprBase: exprBase{P: pos}, Fn: e, Args: args}
		case DOT:
			p.advance()
			name := p.expect(IDENT).Text
			e = &Member{exprBase: exprBase{P: pos}, X: e, Name: name}
		case ARROW:
			p.advance()
			name := p.expect(IDENT).Text
			e = &Member{exprBase: exprBase{P: pos}, X: e, Name: name, Arrow: true}
		case INC:
			p.advance()
			e = &Unary{exprBase: exprBase{P: pos}, Op: PostInc, X: e}
		case DEC:
			p.advance()
			e = &Unary{exprBase: exprBase{P: pos}, Op: PostDec, X: e}
		default:
			return e
		}
	}
}

func (p *Parser) parsePrimaryExpr() Expr {
	pos := p.pos()
	switch p.tok.Kind {
	case INTLIT:
		t := p.advance()
		return &IntLit{exprBase: exprBase{P: pos}, Val: t.Int}
	case CHARLIT:
		t := p.advance()
		return &IntLit{exprBase: exprBase{P: pos}, Val: t.Int}
	case FLOATLIT:
		t := p.advance()
		return &FloatLit{exprBase: exprBase{P: pos}, Val: t.F}
	case STRLIT:
		t := p.advance()
		return &StrLit{exprBase: exprBase{P: pos}, Val: t.Text}
	case IDENT:
		t := p.advance()
		if v, ok := p.enums[t.Text]; ok {
			return &IntLit{exprBase: exprBase{P: pos}, Val: v}
		}
		return &Ident{exprBase: exprBase{P: pos}, Name: t.Text}
	case LPAREN:
		p.advance()
		e := p.parseExpr()
		p.expect(RPAREN)
		return e
	default:
		p.diags.Errorf(pos, "expected expression, found %s %q", p.tok.Kind, p.tok.Text)
		p.advance()
		return &IntLit{exprBase: exprBase{P: pos}}
	}
}

// ---- Constant expressions ----

// parseConstExpr parses and evaluates an integer constant expression.
func (p *Parser) parseConstExpr() int64 {
	pos := p.pos()
	e := p.parseCondExpr()
	v, ok := evalConst(e)
	if !ok {
		p.diags.Errorf(pos, "expression is not an integer constant")
	}
	return v
}

// evalConst evaluates integer constant expressions over the parsed AST.
func evalConst(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *IntLit:
		return x.Val, true
	case *Unary:
		v, ok := evalConst(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case Neg:
			return -v, true
		case Not:
			if v == 0 {
				return 1, true
			}
			return 0, true
		case BitNot:
			return ^v, true
		}
		return 0, false
	case *Binary:
		a, ok := evalConst(x.X)
		if !ok {
			return 0, false
		}
		b, ok := evalConst(x.Y)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case Add:
			return a + b, true
		case Sub:
			return a - b, true
		case Mul:
			return a * b, true
		case Div:
			if b == 0 {
				return 0, false
			}
			return a / b, true
		case Rem:
			if b == 0 {
				return 0, false
			}
			return a % b, true
		case Shl:
			return a << uint(b&63), true
		case Shr:
			return a >> uint(b&63), true
		case BitAnd:
			return a & b, true
		case BitOr:
			return a | b, true
		case BitXor:
			return a ^ b, true
		case Lt:
			return b2i(a < b), true
		case Gt:
			return b2i(a > b), true
		case Le:
			return b2i(a <= b), true
		case Ge:
			return b2i(a >= b), true
		case Eq:
			return b2i(a == b), true
		case Ne:
			return b2i(a != b), true
		case LogAnd:
			return b2i(a != 0 && b != 0), true
		case LogOr:
			return b2i(a != 0 || b != 0), true
		}
		return 0, false
	case *Cond:
		c, ok := evalConst(x.C)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return evalConst(x.T)
		}
		return evalConst(x.F)
	case *SizeofExpr:
		if x.OfType != nil {
			return int64(ctypes.Sizeof(x.OfType)), true
		}
		return 0, false
	case *Cast:
		return evalConst(x.X)
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
