package patex

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses a pattern expression and returns its AST.
func Parse(input string) (Node, error) {
	p := &parser{input: input}
	node, err := p.parseAlternation()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, p.errorf("unexpected %q", p.rest())
	}
	return node, nil
}

type parser struct {
	input string
	pos   int
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("patex: position %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) eof() bool { return p.pos >= len(p.input) }

func (p *parser) rest() string {
	if p.eof() {
		return ""
	}
	r := p.input[p.pos:]
	if len(r) > 12 {
		r = r[:12] + "..."
	}
	return r
}

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.input[p.pos]
}

func (p *parser) skipSpace() {
	for !p.eof() && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t' || p.input[p.pos] == '\n' || p.input[p.pos] == '\r') {
		p.pos++
	}
}

// parseAlternation := parseConcat ('|' parseConcat)*
func (p *parser) parseAlternation() (Node, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	children := []Node{first}
	for {
		p.skipSpace()
		if p.peek() != '|' {
			break
		}
		p.pos++
		next, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		children = append(children, next)
	}
	if len(children) == 1 {
		return children[0], nil
	}
	return &Union{Children: children}, nil
}

// parseConcat := parseRepeated+
func (p *parser) parseConcat() (Node, error) {
	var children []Node
	for {
		p.skipSpace()
		if p.eof() {
			break
		}
		switch p.peek() {
		case ')', ']', '|':
			goto done
		}
		child, err := p.parseRepeated()
		if err != nil {
			return nil, err
		}
		children = append(children, child)
	}
done:
	switch len(children) {
	case 0:
		return nil, p.errorf("empty pattern expression")
	case 1:
		return children[0], nil
	default:
		return &Concat{Children: children}, nil
	}
}

// parseRepeated := parsePrimary postfix*
func (p *parser) parseRepeated() (Node, error) {
	node, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		switch p.peek() {
		case '*':
			p.pos++
			node = &Repeat{Child: node, Min: 0, Unbounded: true}
		case '+':
			p.pos++
			node = &Repeat{Child: node, Min: 1, Unbounded: true}
		case '?':
			p.pos++
			node = &Repeat{Child: node, Min: 0, Max: 1}
		case '{':
			rep, err := p.parseBounds(node)
			if err != nil {
				return nil, err
			}
			node = rep
		default:
			return node, nil
		}
	}
}

// parseBounds parses '{n}', '{n,}', '{n,m}' and also the lenient form '{,m}'
// (meaning '{0,m}') used in the paper for the PrefixSpan constraint T1.
func (p *parser) parseBounds(child Node) (Node, error) {
	if p.peek() != '{' {
		return nil, p.errorf("expected '{'")
	}
	p.pos++
	p.skipSpace()
	min, hasMin, err := p.parseOptionalInt()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	rep := &Repeat{Child: child}
	switch p.peek() {
	case '}':
		p.pos++
		if !hasMin {
			return nil, p.errorf("empty repetition bounds {}")
		}
		rep.Min, rep.Max = min, min
		return rep, nil
	case ',':
		p.pos++
		p.skipSpace()
		max, hasMax, err := p.parseOptionalInt()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != '}' {
			return nil, p.errorf("expected '}' to close repetition bounds")
		}
		p.pos++
		if !hasMin {
			min = 0
		}
		rep.Min = min
		if hasMax {
			if max < min {
				return nil, p.errorf("repetition bounds {%d,%d} have max < min", min, max)
			}
			rep.Max = max
		} else {
			rep.Unbounded = true
		}
		return rep, nil
	default:
		return nil, p.errorf("expected ',' or '}' in repetition bounds")
	}
}

func (p *parser) parseOptionalInt() (int, bool, error) {
	start := p.pos
	for !p.eof() && p.input[p.pos] >= '0' && p.input[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, false, nil
	}
	v, err := strconv.Atoi(p.input[start:p.pos])
	if err != nil {
		return 0, false, p.errorf("bad repetition bound: %v", err)
	}
	return v, true, nil
}

// parsePrimary := '(' alternation ')' | '[' alternation ']' | itemExpr
func (p *parser) parsePrimary() (Node, error) {
	p.skipSpace()
	switch p.peek() {
	case '(':
		p.pos++
		inner, err := p.parseAlternation()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, p.errorf("expected ')'")
		}
		p.pos++
		return &Capture{Child: inner}, nil
	case '[':
		p.pos++
		inner, err := p.parseAlternation()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ']' {
			return nil, p.errorf("expected ']'")
		}
		p.pos++
		return inner, nil
	case 0:
		return nil, p.errorf("unexpected end of pattern expression")
	default:
		return p.parseItemExpr()
	}
}

// parseItemExpr := ('.' | ITEM | QUOTED) ['^'] ['=']
func (p *parser) parseItemExpr() (Node, error) {
	e := &ItemExpr{}
	switch {
	case p.peek() == '.':
		p.pos++
		e.Wildcard = true
	case p.peek() == '\'':
		name, err := p.parseQuoted()
		if err != nil {
			return nil, err
		}
		e.Item = name
	default:
		name := p.parseItemName()
		if name == "" {
			return nil, p.errorf("expected item, '.', '(', or '[' but found %q", p.rest())
		}
		e.Item = name
	}
	if p.peek() == '^' {
		p.pos++
		e.Generalize = true
	}
	if p.peek() == '=' {
		p.pos++
		if e.Generalize {
			e.ForceGen = true
		} else {
			e.Exact = true
		}
	}
	if e.Wildcard && (e.Exact || e.ForceGen) {
		return nil, p.errorf("'=' cannot be applied to the wildcard '.'")
	}
	return e, nil
}

func (p *parser) parseQuoted() (string, error) {
	// opening quote already peeked
	p.pos++
	var b strings.Builder
	for !p.eof() {
		c := p.input[p.pos]
		switch c {
		case '\\':
			if p.pos+1 < len(p.input) && p.input[p.pos+1] == '\'' {
				b.WriteByte('\'')
				p.pos += 2
				continue
			}
			b.WriteByte(c)
			p.pos++
		case '\'':
			p.pos++
			return b.String(), nil
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return "", p.errorf("unterminated quoted item")
}

func isItemRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '#' || r == '&'
}

func (p *parser) parseItemName() string {
	start := p.pos
	for !p.eof() {
		r := rune(p.input[p.pos])
		if !isItemRune(r) {
			break
		}
		p.pos++
	}
	return p.input[start:p.pos]
}
