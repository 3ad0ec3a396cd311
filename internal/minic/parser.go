package minic

import (
	"fmt"
	"strings"
)

// Parser builds a Program from tokens.
type Parser struct {
	toks  []Token
	pos   int
	calls int
}

// Parse parses a MiniHPC translation unit.
func Parse(src string) (*Program, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	prog := &Program{}
	for !p.at(TEOF) {
		if p.isTypeKeyword(p.cur().Kind) {
			// Lookahead: type ident '(' => function, else global decl.
			if p.peekKind(1) == TIdent && p.peekKind(2) == TLParen {
				f, err := p.parseFunc()
				if err != nil {
					return nil, err
				}
				prog.Funcs = append(prog.Funcs, f)
				continue
			}
			d, err := p.parseDecl()
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, d)
			continue
		}
		return nil, p.errorf("expected declaration, got %s", p.cur())
	}
	prog.NumCalls = p.calls
	if prog.Func("main") == nil {
		return nil, fmt.Errorf("program has no main function")
	}
	resolve(prog)
	return prog, nil
}

func (p *Parser) cur() Token { return p.toks[p.pos] }

func (p *Parser) at(k Kind) bool { return p.cur().Kind == k }

func (p *Parser) peekKind(n int) Kind {
	if p.pos+n >= len(p.toks) {
		return TEOF
	}
	return p.toks[p.pos+n].Kind
}

func (p *Parser) next() Token {
	t := p.cur()
	if t.Kind != TEOF {
		p.pos++
	}
	return t
}

func (p *Parser) expect(k Kind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errorf("expected %s, got %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.cur().Line, fmt.Sprintf(format, args...))
}

func (p *Parser) isTypeKeyword(k Kind) bool {
	switch k {
	case TKInt, TKDouble, TKVoid, TKRequest, TKComm, TKStatus:
		return true
	}
	return false
}

func typeOf(k Kind) TypeKind {
	switch k {
	case TKInt:
		return TypeInt
	case TKDouble:
		return TypeDouble
	case TKVoid:
		return TypeVoid
	case TKRequest:
		return TypeRequest
	case TKComm:
		return TypeComm
	case TKStatus:
		return TypeStatus
	}
	return TypeVoid
}

// parseFunc parses: type ident '(' params ')' block
func (p *Parser) parseFunc() (*FuncDecl, error) {
	tt := p.next()
	name, err := p.expect(TIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TLParen); err != nil {
		return nil, err
	}
	var params []Param
	for !p.at(TRParen) {
		if len(params) > 0 {
			if _, err := p.expect(TComma); err != nil {
				return nil, err
			}
		}
		if p.at(TKVoid) && p.peekKind(1) == TRParen {
			p.next()
			break
		}
		if !p.isTypeKeyword(p.cur().Kind) {
			return nil, p.errorf("expected parameter type, got %s", p.cur())
		}
		ptype := typeOf(p.next().Kind)
		pname, err := p.expect(TIdent)
		if err != nil {
			return nil, err
		}
		isArr := false
		if p.at(TLBracket) {
			p.next()
			if _, err := p.expect(TRBracket); err != nil {
				return nil, err
			}
			isArr = true
		}
		params = append(params, Param{Type: ptype, Name: pname.Lit, IsArray: isArr})
	}
	if _, err := p.expect(TRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Line: tt.Line, RetType: typeOf(tt.Kind), Name: name.Lit, Params: params, Body: body}, nil
}

// parseDecl parses: type declarator (',' declarator)* ';'
func (p *Parser) parseDecl() (*DeclStmt, error) {
	tt := p.next()
	d := &DeclStmt{Line: tt.Line, Type: typeOf(tt.Kind)}
	for {
		name, err := p.expect(TIdent)
		if err != nil {
			return nil, err
		}
		dec := Declarator{Name: name.Lit}
		if p.at(TLBracket) {
			p.next()
			if !p.at(TRBracket) {
				sz, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				dec.ArraySize = sz
			}
			if _, err := p.expect(TRBracket); err != nil {
				return nil, err
			}
			if dec.ArraySize == nil {
				return nil, p.errorf("array declaration of %q needs a size", name.Lit)
			}
		}
		if p.at(TAssign) {
			p.next()
			init, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			dec.Init = init
		}
		d.Decls = append(d.Decls, dec)
		if p.at(TComma) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(TSemi); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	lb, err := p.expect(TLBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{Line: lb.Line}
	for !p.at(TRBrace) {
		if p.at(TEOF) {
			return nil, p.errorf("unterminated block (opened at line %d)", lb.Line)
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // }
	return b, nil
}

// parseBody parses the statement governed by if, else, while, for or
// a pragma. As in C's grammar, a declaration is not a statement there:
// it must sit in a block or a for initializer, so each variable has
// one lexical scope.
func (p *Parser) parseBody() (Stmt, error) {
	if p.isTypeKeyword(p.cur().Kind) {
		return nil, p.errorf("a declaration must be inside a block")
	}
	return p.parseStmt()
}

// parseStmt parses one statement.
func (p *Parser) parseStmt() (Stmt, error) {
	switch {
	case p.at(TLBrace):
		return p.parseBlock()
	case p.at(TPragma):
		return p.parsePragmaStmt()
	case p.isTypeKeyword(p.cur().Kind):
		return p.parseDecl()
	case p.at(TKIf):
		return p.parseIf()
	case p.at(TKFor):
		return p.parseFor()
	case p.at(TKWhile):
		return p.parseWhile()
	case p.at(TKReturn):
		t := p.next()
		var x Expr
		if !p.at(TSemi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			x = e
		}
		if _, err := p.expect(TSemi); err != nil {
			return nil, err
		}
		return &ReturnStmt{Line: t.Line, X: x}, nil
	case p.at(TKBreak):
		t := p.next()
		if _, err := p.expect(TSemi); err != nil {
			return nil, err
		}
		return &BreakStmt{Line: t.Line}, nil
	case p.at(TKContinue):
		t := p.next()
		if _, err := p.expect(TSemi); err != nil {
			return nil, err
		}
		return &ContinueStmt{Line: t.Line}, nil
	case p.at(TSemi):
		t := p.next()
		return &Block{Line: t.Line}, nil // empty statement
	default:
		t := p.cur()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TSemi); err != nil {
			return nil, err
		}
		return &ExprStmt{Line: t.Line, X: x}, nil
	}
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.next()
	if _, err := p.expect(TLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TRParen); err != nil {
		return nil, err
	}
	then, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	var els Stmt
	if p.at(TKElse) {
		p.next()
		els, err = p.parseBody()
		if err != nil {
			return nil, err
		}
	}
	return &IfStmt{Line: t.Line, Cond: cond, Then: then, Else: els}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next()
	if _, err := p.expect(TLParen); err != nil {
		return nil, err
	}
	var init Stmt
	if !p.at(TSemi) {
		if p.isTypeKeyword(p.cur().Kind) {
			d, err := p.parseDecl() // consumes the ';'
			if err != nil {
				return nil, err
			}
			init = d
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			init = &ExprStmt{Line: x.Pos(), X: x}
			if _, err := p.expect(TSemi); err != nil {
				return nil, err
			}
		}
	} else {
		p.next()
	}
	var cond Expr
	if !p.at(TSemi) {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		cond = c
	}
	if _, err := p.expect(TSemi); err != nil {
		return nil, err
	}
	var post Expr
	if !p.at(TRParen) {
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		post = x
	}
	if _, err := p.expect(TRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Line: t.Line, Init: init, Cond: cond, Post: post, Body: body}, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t := p.next()
	if _, err := p.expect(TLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Line: t.Line, Cond: cond, Body: body}, nil
}

// ---- Pragmas ----

// pragmaSection is the kind parsePragmaText gives `#pragma omp
// section`. It is legal only as an entry of a sections block, so it
// never reaches the AST.
const pragmaSection PragmaKind = -1

// parsePragmaStmt parses a `#pragma omp ...` directive and its
// governed statement.
func (p *Parser) parsePragmaStmt() (Stmt, error) {
	t := p.next() // TPragma
	o, err := parsePragmaText(t.Lit, t.Line)
	if err != nil {
		return nil, err
	}
	switch o.Kind {
	case PragmaBarrier:
		return o, nil
	case PragmaSections:
		return p.parseSections(o)
	case pragmaSection:
		return nil, fmt.Errorf("line %d: #pragma omp section outside sections", t.Line)
	}
	body, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	if _, ok := body.(*ForStmt); !ok && (o.Kind == PragmaParallelFor || o.Kind == PragmaFor) {
		return nil, fmt.Errorf("line %d: #pragma omp %s must govern a for loop", t.Line, o.Kind)
	}
	o.Body = body
	return o, nil
}

// parseSections parses the block of a sections construct: a sequence
// of `#pragma omp section` entries, each governing one statement.
func (p *Parser) parseSections(o *OmpStmt) (Stmt, error) {
	lb, err := p.expect(TLBrace)
	if err != nil {
		return nil, err
	}
	for !p.at(TRBrace) {
		if p.at(TEOF) {
			return nil, p.errorf("unterminated block (opened at line %d)", lb.Line)
		}
		if !p.at(TPragma) {
			return nil, p.errorf("sections block must contain only #pragma omp section entries")
		}
		t := p.next()
		sec, err := parsePragmaText(t.Lit, t.Line)
		if err != nil {
			return nil, err
		}
		if sec.Kind != pragmaSection {
			return nil, fmt.Errorf("line %d: sections block must contain only #pragma omp section entries", t.Line)
		}
		s, err := p.parseBody()
		if err != nil {
			return nil, err
		}
		body, ok := s.(*Block)
		if !ok {
			body = &Block{Line: t.Line, Stmts: []Stmt{s}}
		}
		o.Sections = append(o.Sections, body)
	}
	p.next() // }
	if len(o.Sections) == 0 {
		return nil, fmt.Errorf("line %d: empty sections construct", o.Line)
	}
	return o, nil
}

// parsePragmaText parses the directive text after "#pragma".
func parsePragmaText(text string, line int) (*OmpStmt, error) {
	// The core lexer has no ':' token; reduction(op:vars) is the only
	// place a colon appears, so split it into whitespace first.
	toks, err := Tokenize(strings.ReplaceAll(text, ":", " "))
	if err != nil {
		return nil, fmt.Errorf("line %d: bad pragma: %v", line, err)
	}
	// The text is one source line, tokenized from line 1: move its
	// tokens to the pragma's line, so clause expressions carry it.
	for i := range toks {
		toks[i].Line += line - 1
	}
	pp := &Parser{toks: toks}
	if w, err := pp.expect(TIdent); err != nil || w.Lit != "omp" {
		return nil, fmt.Errorf("line %d: only 'omp' pragmas are supported", line)
	}
	o := &OmpStmt{Line: line}
	d := pp.next()
	switch {
	case d.Kind == TKFor:
		o.Kind = PragmaFor
	case d.Kind == TIdent && d.Lit == "parallel":
		o.Kind = PragmaParallel
		if pp.at(TKFor) {
			pp.next()
			o.Kind = PragmaParallelFor
		}
	case d.Kind == TIdent && d.Lit == "sections":
		o.Kind = PragmaSections
	case d.Kind == TIdent && d.Lit == "section":
		o.Kind = pragmaSection
	case d.Kind == TIdent && d.Lit == "single":
		o.Kind = PragmaSingle
	case d.Kind == TIdent && d.Lit == "master":
		o.Kind = PragmaMaster
	case d.Kind == TIdent && d.Lit == "critical":
		o.Kind = PragmaCritical
		if pp.at(TLParen) {
			pp.next()
			n, err := pp.expect(TIdent)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad critical name", line)
			}
			o.Name = n.Lit
			if _, err := pp.expect(TRParen); err != nil {
				return nil, fmt.Errorf("line %d: bad critical name", line)
			}
		}
	case d.Kind == TIdent && d.Lit == "barrier":
		o.Kind = PragmaBarrier
	default:
		return nil, fmt.Errorf("line %d: unsupported omp directive %q", line, d.Lit)
	}
	if err := parseClauses(pp, o, line); err != nil {
		return nil, err
	}
	return o, nil
}

// parseClauses parses trailing pragma clauses.
func parseClauses(pp *Parser, o *OmpStmt, line int) error {
	for !pp.at(TEOF) {
		c, err := pp.expect(TIdent)
		if err != nil {
			return fmt.Errorf("line %d: bad pragma clause: %s", line, pp.cur())
		}
		switch c.Lit {
		case "num_threads":
			if _, err := pp.expect(TLParen); err != nil {
				return fmt.Errorf("line %d: num_threads needs (n)", line)
			}
			e, err := pp.parseExpr()
			if err != nil {
				return err
			}
			o.NumThreads = e
			if _, err := pp.expect(TRParen); err != nil {
				return fmt.Errorf("line %d: num_threads needs (n)", line)
			}
		case "schedule":
			if _, err := pp.expect(TLParen); err != nil {
				return fmt.Errorf("line %d: schedule needs (kind[,chunk])", line)
			}
			k, err := pp.expect(TIdent)
			if err != nil {
				return fmt.Errorf("line %d: schedule kind missing", line)
			}
			switch k.Lit {
			case "static":
				o.Schedule = SchedStatic
			case "dynamic":
				o.Schedule = SchedDynamic
			case "guided":
				o.Schedule = SchedGuided
			default:
				return fmt.Errorf("line %d: unsupported schedule %q", line, k.Lit)
			}
			if pp.at(TComma) {
				pp.next()
				e, err := pp.parseExpr()
				if err != nil {
					return err
				}
				o.Chunk = e
			}
			if _, err := pp.expect(TRParen); err != nil {
				return fmt.Errorf("line %d: schedule needs closing paren", line)
			}
		case "private", "firstprivate", "shared":
			if _, err := pp.expect(TLParen); err != nil {
				return fmt.Errorf("line %d: %s needs (vars)", line, c.Lit)
			}
			for {
				n, err := pp.expect(TIdent)
				if err != nil {
					return fmt.Errorf("line %d: bad %s list", line, c.Lit)
				}
				if c.Lit != "shared" {
					o.Private = append(o.Private, n.Lit)
				}
				if pp.at(TComma) {
					pp.next()
					continue
				}
				break
			}
			if _, err := pp.expect(TRParen); err != nil {
				return fmt.Errorf("line %d: bad %s list", line, c.Lit)
			}
		case "reduction":
			if _, err := pp.expect(TLParen); err != nil {
				return fmt.Errorf("line %d: reduction needs (op:vars)", line)
			}
			// op is +, *, or an identifier (max/min).
			switch {
			case pp.at(TPlus):
				pp.next()
				o.Reduction = "+"
			case pp.at(TStar):
				pp.next()
				o.Reduction = "*"
			default:
				opTok, err := pp.expect(TIdent)
				if err != nil {
					return fmt.Errorf("line %d: bad reduction op", line)
				}
				o.Reduction = opTok.Lit
			}
			// ':' is not a lexer token; reduction text uses a
			// dedicated form 'reduction(+ : var)' — accept the colon
			// by scanning identifiers after the op.
			return parseReductionVars(pp, o, line)
		case "default", "nowait":
			// Accepted and ignored (nowait semantics are out of
			// scope; implicit barriers are always performed).
			if pp.at(TLParen) {
				depth := 0
				for !pp.at(TEOF) {
					if pp.at(TLParen) {
						depth++
					}
					if pp.at(TRParen) {
						depth--
						pp.next()
						if depth == 0 {
							break
						}
						continue
					}
					pp.next()
				}
			}
		default:
			return fmt.Errorf("line %d: unsupported pragma clause %q", line, c.Lit)
		}
	}
	return nil
}

// parseReductionVars handles the tail of reduction(op : a, b).
func parseReductionVars(pp *Parser, o *OmpStmt, line int) error {
	// parsePragmaText split the colon into whitespace, so what remains
	// is a comma-separated identifier list up to ')'.
	for {
		n, err := pp.expect(TIdent)
		if err != nil {
			return fmt.Errorf("line %d: bad reduction vars", line)
		}
		o.RedVars = append(o.RedVars, n.Lit)
		if pp.at(TComma) {
			pp.next()
			continue
		}
		break
	}
	if _, err := pp.expect(TRParen); err != nil {
		return fmt.Errorf("line %d: reduction needs closing paren", line)
	}
	return parseClauses(pp, o, line)
}
