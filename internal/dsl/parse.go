package dsl

import (
	"fmt"
	"os"
	"strconv"
	"sync"

	"paramring/internal/core"
)

// Parse parses a protocol definition and compiles it.
func Parse(src string) (*core.Protocol, error) {
	spec, err := ParseSpec(src)
	if err != nil {
		return nil, err
	}
	return spec.Protocol()
}

// ParseFile parses a protocol definition from a file.
func ParseFile(path string) (*core.Protocol, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dsl: %w", err)
	}
	p, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("dsl: %s: %w", path, err)
	}
	return p, nil
}

// tokenBuffers lends ParseSpec a token buffer. A spec's lines are lexed one
// at a time into one buffer (the parser keeps no token), and a returned
// buffer keeps the capacity its longest line gave it, so later specs are
// lexed without growing one again.
var tokenBuffers = sync.Pool{New: func() any { return new([]token) }}

// maxPooledTokens bounds the buffers that go back to tokenBuffers.
const maxPooledTokens = 4096

// ParseSpec parses without compiling (exposed for tooling and tests).
func ParseSpec(src string) (*Spec, error) {
	spec := &Spec{Lo: 1} // Lo>Hi marks "window not yet set"
	spec.Hi = 0
	seenWindow := false
	seenDomain := false
	buf := tokenBuffers.Get().(*[]token)
	toks := *buf
	defer func() {
		if cap(toks) <= maxPooledTokens {
			// Tokens hold substrings of src: a pooled buffer keeps none.
			clear(toks[:cap(toks)])
			*buf = toks[:0]
			tokenBuffers.Put(buf)
		}
	}()
	for _, ll := range logicalLines(src) {
		var err error
		toks, err = lexLine(toks, ll.text, ll.line)
		if err != nil {
			return nil, err
		}
		if len(toks) == 0 {
			continue
		}
		p := &parser{toks: toks, line: ll.line, spec: spec}
		head := p.next()
		if head.kind != tokName {
			return nil, p.errf(head, "expected a keyword, got %q", head.text)
		}
		switch head.text {
		case "protocol":
			name := p.next()
			if name.kind != tokName {
				return nil, p.errf(name, "expected protocol name")
			}
			spec.Name = name.text
		case "domain":
			seenDomain = true
			t := p.peek()
			if t.kind == tokInt {
				p.next()
				n, _ := strconv.Atoi(t.text)
				spec.Domain = n
			} else if t.kind == tokName && t.text == "values" {
				p.next()
				for p.peek().kind == tokName {
					spec.ValueNames = append(spec.ValueNames, p.next().text)
				}
				spec.Domain = len(spec.ValueNames)
			} else {
				return nil, p.errf(t, "expected a size or 'values'")
			}
		case "window":
			seenWindow = true
			lo, err := p.parseSignedInt()
			if err != nil {
				return nil, err
			}
			hi, err := p.parseSignedInt()
			if err != nil {
				return nil, err
			}
			spec.Lo, spec.Hi = lo, hi
		case "legit":
			if !seenDomain || !seenWindow {
				return nil, fmt.Errorf("line %d: 'legit' must come after 'domain' and 'window'", ll.line)
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			spec.Legit = e
		case "action":
			if !seenDomain || !seenWindow {
				return nil, fmt.Errorf("line %d: 'action' must come after 'domain' and 'window'", ll.line)
			}
			if err := p.parseAction(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf(head, "unknown keyword %q", head.text)
		}
		if rest := p.peek(); rest.kind != tokEOF {
			return nil, p.errf(rest, "trailing input %q", rest.text)
		}
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("dsl: missing 'protocol' declaration")
	}
	if spec.Legit == nil {
		return nil, fmt.Errorf("dsl: missing 'legit' declaration")
	}
	return spec, nil
}

type parser struct {
	toks []token
	i    int
	line int
	spec *Spec
}

func (p *parser) peek() token {
	if p.i >= len(p.toks) {
		return token{kind: tokEOF, text: "<end of line>"}
	}
	return p.toks[p.i]
}

func (p *parser) next() token {
	t := p.peek()
	p.i++
	return t
}

func (p *parser) accept(text string) bool {
	if p.peek().text == text && p.peek().kind != tokEOF {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf(p.peek(), "expected %q", text)
	}
	return nil
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("line %d:%d: %s", p.line, t.pos+1, fmt.Sprintf(format, args...))
}

func (p *parser) parseSignedInt() (int, error) {
	neg := p.accept("-")
	t := p.next()
	if t.kind != tokInt {
		return 0, p.errf(t, "expected an integer")
	}
	n, _ := strconv.Atoi(t.text)
	if neg {
		n = -n
	}
	return n, nil
}

func (p *parser) parseAction() error {
	name := p.next()
	if name.kind != tokName {
		return p.errf(name, "expected action name")
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	guard, err := p.parseExpr()
	if err != nil {
		return err
	}
	if err := p.expect("->"); err != nil {
		return err
	}
	var assigns []expr
	for {
		if err := p.expect("x"); err != nil {
			return err
		}
		if err := p.expect("["); err != nil {
			return err
		}
		off, err := p.parseSignedInt()
		if err != nil {
			return err
		}
		if off != 0 {
			return fmt.Errorf("line %d: processes may only write their own variable x[0], not x[%d]", p.line, off)
		}
		if err := p.expect("]"); err != nil {
			return err
		}
		if err := p.expect(":="); err != nil {
			return err
		}
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		assigns = append(assigns, e)
		if !p.accept("|") {
			break
		}
	}
	p.spec.Actions = append(p.spec.Actions, actionDef{
		name: name.text, guard: guard, assigns: assigns, line: p.line,
	})
	return nil
}

// Expression parsing, precedence climbing:
//
//	or   := and { "||" and }
//	and  := cmp { "&&" cmp }
//	cmp  := sum [ (==|!=|<|<=|>|>=) sum ]
//	sum  := prod { (+|-) prod }
//	prod := unary { (*|%) unary }
//	unary:= [!|-] atom
//	atom := INT | NAME | x [ INT ] | "(" or ")"
func (p *parser) parseExpr() (expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binary{op: "||", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.accept("&&") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = binary{op: "&&", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseCmp() (expr, error) {
	l, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"==", "!=", "<=", ">=", "<", ">"} {
		if p.accept(op) {
			r, err := p.parseSum()
			if err != nil {
				return nil, err
			}
			return binary{op: op, l: l, r: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseSum() (expr, error) {
	l, err := p.parseProd()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("+"):
			r, err := p.parseProd()
			if err != nil {
				return nil, err
			}
			l = binary{op: "+", l: l, r: r}
		case p.accept("-"):
			r, err := p.parseProd()
			if err != nil {
				return nil, err
			}
			l = binary{op: "-", l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseProd() (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = binary{op: "*", l: l, r: r}
		case p.accept("%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = binary{op: "%", l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (expr, error) {
	if p.accept("!") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unary{op: "!", x: x}, nil
	}
	if p.accept("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unary{op: "-", x: x}, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (expr, error) {
	t := p.next()
	switch {
	case t.kind == tokInt:
		n, _ := strconv.Atoi(t.text)
		return intLit{v: n}, nil
	case t.kind == tokName && t.text == "x":
		if err := p.expect("["); err != nil {
			return nil, err
		}
		off, err := p.parseSignedInt()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		if off < p.spec.Lo || off > p.spec.Hi {
			return nil, fmt.Errorf("line %d: x[%d] is outside the window [%d,%d]", p.line, off, p.spec.Lo, p.spec.Hi)
		}
		return varRef{offset: off}, nil
	case t.kind == tokName:
		// A value name resolves to its index.
		for i, n := range p.spec.ValueNames {
			if n == t.text {
				return intLit{v: i}, nil
			}
		}
		return nil, p.errf(t, "unknown value name %q", t.text)
	case t.text == "(":
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf(t, "expected an expression, got %q", t.text)
	}
}

// ParseExpr parses a standalone boolean/arithmetic expression over the
// window [lo, hi] with the given domain value names (may be nil). Used by
// tools that take predicates on the command line (e.g. a tree root's
// legitimacy predicate).
func ParseExpr(src string, valueNames []string, lo, hi int) (func(v core.View) bool, error) {
	toks, err := lexLine(nil, src, 1)
	if err != nil {
		return nil, err
	}
	spec := &Spec{Lo: lo, Hi: hi, ValueNames: valueNames}
	p := &parser{toks: toks, line: 1, spec: spec}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if rest := p.peek(); rest.kind != tokEOF {
		return nil, p.errf(rest, "trailing input %q", rest.text)
	}
	return func(v core.View) bool { return e.eval(v, lo) != 0 }, nil
}
