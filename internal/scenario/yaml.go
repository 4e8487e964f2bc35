// Package scenario is the declarative experiment engine: it parses a YAML
// scenario file — a fleet definition, a timed event stream of operational
// incidents, and an assertions block — and executes it deterministically on
// the simulated CDN, emitting a stable machine-readable report. The same
// file with the same seed always produces a byte-identical report, so a
// scenario is a one-variable controlled experiment in a text file.
//
// The repo carries no dependencies, so the package includes its own decoder
// for the YAML subset the format needs: block mappings and sequences,
// flow-style `[a, b]` / `{k: v}` collections, quoted and plain scalars, and
// comments. It is not a general YAML parser and rejects what it does not
// understand rather than guessing.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// NodeKind discriminates the decoded node tree.
type NodeKind int

// Node kinds.
const (
	ScalarNode NodeKind = iota + 1
	MapNode
	SeqNode
)

// Node is one decoded YAML value, annotated with its source line so schema
// errors can point back into the file.
type Node struct {
	// Line is the 1-based source line the node starts on.
	Line int
	// Kind selects which of the remaining fields are meaningful.
	Kind NodeKind
	// Value is the scalar text (quotes stripped).
	Value string
	// Keys and Vals hold a mapping's entries in file order.
	Keys []string
	Vals []*Node
	// KeyLines holds the line of each key, parallel to Keys.
	KeyLines []int
	// Items holds a sequence's elements in order.
	Items []*Node
}

// Get returns the value mapped under key, or nil.
func (n *Node) Get(key string) *Node {
	if n == nil || n.Kind != MapNode {
		return nil
	}
	for i, k := range n.Keys {
		if k == key {
			return n.Vals[i]
		}
	}
	return nil
}

// decode limits, sized for scenario files while keeping the fuzzer safe
// from pathological inputs.
const (
	maxYAMLBytes = 1 << 20
	maxYAMLDepth = 32
	maxFlowItems = 1024
)

type yamlLine struct {
	num    int // 1-based source line
	indent int // leading spaces
	text   string
}

// DecodeYAML parses src into a node tree.
func DecodeYAML(src []byte) (*Node, error) {
	if len(src) > maxYAMLBytes {
		return nil, fmt.Errorf("yaml: input %d bytes exceeds the %d-byte limit", len(src), maxYAMLBytes)
	}
	lines, err := splitLines(string(src))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("yaml: empty document")
	}
	root, next, err := parseBlock(lines, 0, lines[0].indent, 0)
	if err != nil {
		return nil, err
	}
	if next != len(lines) {
		return nil, fmt.Errorf("yaml: line %d: content indented left of the document root", lines[next].num)
	}
	return root, nil
}

// splitLines strips comments and blanks, records indentation, and rejects
// constructs outside the supported subset.
func splitLines(src string) ([]yamlLine, error) {
	var out []yamlLine
	for i, raw := range strings.Split(src, "\n") {
		num := i + 1
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if indent < len(raw) && raw[indent] == '\t' {
			return nil, fmt.Errorf("yaml: line %d: tab in indentation", num)
		}
		text := strings.TrimRight(stripComment(raw[indent:]), " \t\r")
		if text == "" {
			continue
		}
		out = append(out, yamlLine{num: num, indent: indent, text: text})
	}
	return out, nil
}

// stripComment removes a trailing comment, respecting quoted scalars.
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t'):
			return s[:i]
		}
	}
	return s
}

// parseBlock parses the run of lines at exactly the given indent starting at
// index i, returning the node and the index of the first unconsumed line.
func parseBlock(lines []yamlLine, i, indent, depth int) (*Node, int, error) {
	if depth > maxYAMLDepth {
		return nil, i, fmt.Errorf("yaml: line %d: nesting deeper than %d levels", lines[i].num, maxYAMLDepth)
	}
	if isSeqItem(lines[i].text) {
		return parseSeq(lines, i, indent, depth)
	}
	if _, _, ok := splitKey(lines[i].text); ok {
		return parseMap(lines, i, indent, depth)
	}
	// A lone scalar is only valid as a whole single-line document.
	if len(lines) == 1 {
		n, err := parseFlow(lines[i].text, lines[i].num, depth)
		return n, i + 1, err
	}
	return nil, i, fmt.Errorf("yaml: line %d: expected \"key: value\" or \"- item\"", lines[i].num)
}

func isSeqItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// splitKey splits "key: rest" at the first top-level colon. ok is false when
// the line is not a mapping entry.
func splitKey(text string) (key, rest string, ok bool) {
	var quote byte
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == ':' && (i+1 == len(text) || text[i+1] == ' '):
			key = strings.TrimSpace(unquote(text[:i]))
			rest = strings.TrimSpace(text[i+1:])
			return key, rest, key != ""
		}
	}
	return "", "", false
}

func parseMap(lines []yamlLine, i, indent, depth int) (*Node, int, error) {
	n := &Node{Line: lines[i].num, Kind: MapNode}
	for i < len(lines) && lines[i].indent == indent {
		ln := lines[i]
		if isSeqItem(ln.text) {
			return nil, i, fmt.Errorf("yaml: line %d: sequence item inside a mapping", ln.num)
		}
		key, rest, ok := splitKey(ln.text)
		if !ok {
			return nil, i, fmt.Errorf("yaml: line %d: expected \"key: value\"", ln.num)
		}
		for _, k := range n.Keys {
			if k == key {
				return nil, i, fmt.Errorf("yaml: line %d: duplicate key %q", ln.num, key)
			}
		}
		var val *Node
		var err error
		if rest != "" {
			val, err = parseFlow(rest, ln.num, depth)
			if err != nil {
				return nil, i, err
			}
			i++
		} else if i+1 < len(lines) && lines[i+1].indent > indent {
			val, i, err = parseBlock(lines, i+1, lines[i+1].indent, depth+1)
			if err != nil {
				return nil, i, err
			}
		} else {
			val = &Node{Line: ln.num, Kind: ScalarNode, Value: ""}
			i++
		}
		n.Keys = append(n.Keys, key)
		n.KeyLines = append(n.KeyLines, ln.num)
		n.Vals = append(n.Vals, val)
	}
	if i < len(lines) && lines[i].indent > indent {
		return nil, i, fmt.Errorf("yaml: line %d: unexpected indentation", lines[i].num)
	}
	return n, i, nil
}

func parseSeq(lines []yamlLine, i, indent, depth int) (*Node, int, error) {
	n := &Node{Line: lines[i].num, Kind: SeqNode}
	for i < len(lines) && lines[i].indent == indent && isSeqItem(lines[i].text) {
		ln := lines[i]
		rest := strings.TrimSpace(strings.TrimPrefix(ln.text, "-"))
		var item *Node
		var err error
		switch {
		case rest == "":
			if i+1 < len(lines) && lines[i+1].indent > indent {
				item, i, err = parseBlock(lines, i+1, lines[i+1].indent, depth+1)
				if err != nil {
					return nil, i, err
				}
			} else {
				item = &Node{Line: ln.num, Kind: ScalarNode, Value: ""}
				i++
			}
		default:
			// "- key: value": the item content starts mid-line; re-parse it
			// as a block whose first line sits at the content's column.
			if _, _, ok := splitKey(rest); ok {
				col := ln.indent + (len(ln.text) - len(rest))
				rewritten := append([]yamlLine{{num: ln.num, indent: col, text: rest}}, lines[i+1:]...)
				var consumed int
				item, consumed, err = parseBlock(rewritten, 0, col, depth+1)
				if err != nil {
					return nil, i, err
				}
				i += consumed
			} else {
				item, err = parseFlow(rest, ln.num, depth)
				if err != nil {
					return nil, i, err
				}
				i++
			}
		}
		n.Items = append(n.Items, item)
		if len(n.Items) > maxFlowItems {
			return nil, i, fmt.Errorf("yaml: line %d: sequence longer than %d items", ln.num, maxFlowItems)
		}
	}
	if i < len(lines) && lines[i].indent > indent {
		return nil, i, fmt.Errorf("yaml: line %d: unexpected indentation", lines[i].num)
	}
	return n, i, nil
}

// parseFlow parses an inline value: a flow sequence, a flow mapping, or a
// scalar.
func parseFlow(text string, line, depth int) (*Node, error) {
	if depth > maxYAMLDepth {
		return nil, fmt.Errorf("yaml: line %d: nesting deeper than %d levels", line, maxYAMLDepth)
	}
	switch {
	case strings.HasPrefix(text, "[") && strings.HasSuffix(text, "]"):
		n := &Node{Line: line, Kind: SeqNode}
		inner := strings.TrimSpace(text[1 : len(text)-1])
		if inner == "" {
			return n, nil
		}
		parts, err := splitFlow(inner, line)
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			item, err := parseFlow(p, line, depth+1)
			if err != nil {
				return nil, err
			}
			n.Items = append(n.Items, item)
		}
		return n, nil
	case strings.HasPrefix(text, "{") && strings.HasSuffix(text, "}"):
		n := &Node{Line: line, Kind: MapNode}
		inner := strings.TrimSpace(text[1 : len(text)-1])
		if inner == "" {
			return n, nil
		}
		parts, err := splitFlow(inner, line)
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			key, rest, ok := splitKey(p)
			if !ok {
				return nil, fmt.Errorf("yaml: line %d: expected \"key: value\" in flow mapping, got %q", line, p)
			}
			for _, k := range n.Keys {
				if k == key {
					return nil, fmt.Errorf("yaml: line %d: duplicate key %q", line, key)
				}
			}
			val, err := parseFlow(rest, line, depth+1)
			if err != nil {
				return nil, err
			}
			n.Keys = append(n.Keys, key)
			n.KeyLines = append(n.KeyLines, line)
			n.Vals = append(n.Vals, val)
		}
		return n, nil
	case strings.HasPrefix(text, "[") || strings.HasPrefix(text, "{"):
		return nil, fmt.Errorf("yaml: line %d: unterminated flow collection %q", line, text)
	}
	return &Node{Line: line, Kind: ScalarNode, Value: unquote(text)}, nil
}

// splitFlow splits flow-collection content at top-level commas.
func splitFlow(s string, line int) ([]string, error) {
	var out []string
	var quote byte
	nest := 0
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '[' || c == '{':
			nest++
		case c == ']' || c == '}':
			nest--
			if nest < 0 {
				return nil, fmt.Errorf("yaml: line %d: unbalanced brackets", line)
			}
		case c == ',' && nest == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
		if len(out) > maxFlowItems {
			return nil, fmt.Errorf("yaml: line %d: flow collection longer than %d items", line, maxFlowItems)
		}
	}
	if quote != 0 {
		return nil, fmt.Errorf("yaml: line %d: unterminated quote", line)
	}
	if nest != 0 {
		return nil, fmt.Errorf("yaml: line %d: unbalanced brackets", line)
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out, nil
}

func unquote(s string) string {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	return s
}

// Typed scalar accessors. Each reports the node's line on mismatch so schema
// errors point into the source file.

func (n *Node) scalar(what string) (string, error) {
	if n.Kind != ScalarNode {
		return "", fmt.Errorf("line %d: expected %s, got a %s", n.Line, what, n.kindName())
	}
	return n.Value, nil
}

func (n *Node) kindName() string {
	switch n.Kind {
	case ScalarNode:
		return "scalar"
	case MapNode:
		return "mapping"
	case SeqNode:
		return "sequence"
	}
	return "unknown node"
}

// Str returns the node's scalar text.
func (n *Node) Str() (string, error) { return n.scalar("a string") }

// Bool parses the node as true/false.
func (n *Node) Bool() (bool, error) {
	s, err := n.scalar("a boolean")
	if err != nil {
		return false, err
	}
	switch s {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("line %d: %q is not a boolean (want true or false)", n.Line, s)
}

// Int parses the node as a decimal integer.
func (n *Node) Int() (int64, error) {
	s, err := n.scalar("an integer")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("line %d: %q is not an integer", n.Line, s)
	}
	return v, nil
}

// Float parses the node as a float.
func (n *Node) Float() (float64, error) {
	s, err := n.scalar("a number")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("line %d: %q is not a number", n.Line, s)
	}
	return v, nil
}

// Duration parses the node as a Go duration ("90s", "2m", "1h30m").
func (n *Node) Duration() (time.Duration, error) {
	s, err := n.scalar("a duration")
	if err != nil {
		return 0, err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("line %d: %q is not a duration (want e.g. \"90s\", \"2m\")", n.Line, s)
	}
	return v, nil
}

// StrSeq parses the node as a sequence of strings.
func (n *Node) StrSeq() ([]string, error) {
	if n.Kind != SeqNode {
		return nil, fmt.Errorf("line %d: expected a sequence, got a %s", n.Line, n.kindName())
	}
	out := make([]string, 0, len(n.Items))
	for _, it := range n.Items {
		s, err := it.Str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
