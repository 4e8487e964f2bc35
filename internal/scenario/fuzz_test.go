package scenario

import (
	"strings"
	"testing"
)

// FuzzDecodeYAML asserts the decoder never panics and never silently loses
// structure: whatever it accepts must round-trip through the accessors.
func FuzzDecodeYAML(f *testing.F) {
	seeds := []string{
		"a: 1",
		"a:\n  b: c",
		"- 1\n- 2",
		"a: [1, 2, 3]",
		"a: {b: 1, c: d}",
		"a: \"x # y\"\nb: 'z'",
		"events:\n  - at: 10s\n    flash_crowd:\n      target: lhr",
		"a:\n- b: 1\n  c: 2",
		"# only a comment",
		"---\na: 1\n...",
		"key with spaces: value: with: colons",
		"a: -1.5e10",
		strings.Repeat("  ", 10) + "deep: 1",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := DecodeYAML(data)
		if err != nil {
			return
		}
		walk(t, n, 0)
	})
}

// walk exercises every accessor on every node, checking invariants.
func walk(t *testing.T, n *Node, depth int) {
	if depth > maxYAMLDepth+2 {
		t.Fatalf("decoded tree deeper than the parser's limit")
	}
	if n.Line < 1 {
		t.Fatalf("node without a source line: %+v", n)
	}
	switch n.Kind {
	case MapNode:
		if len(n.Keys) != len(n.Vals) || len(n.Keys) != len(n.KeyLines) {
			t.Fatalf("mapping with mismatched key/value/line counts")
		}
		seen := map[string]bool{}
		for i, k := range n.Keys {
			if seen[k] {
				t.Fatalf("duplicate key %q survived decoding", k)
			}
			seen[k] = true
			if n.Get(k) != n.Vals[i] {
				t.Fatalf("Get(%q) does not return the stored value", k)
			}
			walk(t, n.Vals[i], depth+1)
		}
	case SeqNode:
		for _, it := range n.Items {
			walk(t, it, depth+1)
		}
	case ScalarNode:
		// Accessors must not panic; errors are fine.
		_, _ = n.Str()
		_, _ = n.Bool()
		_, _ = n.Int()
		_, _ = n.Float()
		_, _ = n.Duration()
	default:
		t.Fatalf("node with invalid kind %d", n.Kind)
	}
}

// FuzzParseScenario asserts the full schema layer never panics, and that
// whatever parses also re-parses (stability under acceptance).
func FuzzParseScenario(f *testing.F) {
	f.Add([]byte(validScenario))
	f.Add([]byte(quickScenario))
	f.Add([]byte(armsScenario))
	f.Add([]byte("name: x\nfleet:\n  pops: [lhr, fra]\nduration: 1m"))
	f.Add([]byte("name: x\nfleet: {}\nduration: -1s"))
	f.Add([]byte("name: x\nfleet:\n  regions: [asia]\nduration: 1m\nassertions:\n  - riptide.a / riptide.b <= 1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil {
			return
		}
		if sp.Name == "" || sp.Duration <= 0 {
			t.Fatalf("accepted scenario with empty name or non-positive duration: %+v", sp)
		}
		if _, err := Parse(data); err != nil {
			t.Fatalf("accepted once, rejected on re-parse: %v", err)
		}
	})
}
