package scenario

import (
	"strings"
	"testing"
)

func TestDecodeYAMLBasics(t *testing.T) {
	src := `
# a scenario-shaped document
name: demo
count: 42
ratio: 0.5   # trailing comment
flag: true
quoted: "a: b # not a comment"
fleet:
  pops: [lhr, fra, jfk]
  riptide: {enabled: true, cmax: 100}
events:
  - at: 10s
    flash_crowd:
      target: lhr
  - at: 20s
    note: second
plain_list:
  - one
  - two
`
	n, err := DecodeYAML([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := n.Get("name").Str(); got != "demo" {
		t.Errorf("name = %q", got)
	}
	if got, _ := n.Get("count").Int(); got != 42 {
		t.Errorf("count = %d", got)
	}
	if got, _ := n.Get("ratio").Float(); got != 0.5 {
		t.Errorf("ratio = %v", got)
	}
	if got, _ := n.Get("flag").Bool(); !got {
		t.Error("flag = false")
	}
	if got, _ := n.Get("quoted").Str(); got != "a: b # not a comment" {
		t.Errorf("quoted = %q", got)
	}
	pops, err := n.Get("fleet").Get("pops").StrSeq()
	if err != nil || len(pops) != 3 || pops[0] != "lhr" || pops[2] != "jfk" {
		t.Errorf("pops = %v, %v", pops, err)
	}
	if got, _ := n.Get("fleet").Get("riptide").Get("cmax").Int(); got != 100 {
		t.Errorf("flow-map cmax = %d", got)
	}
	events := n.Get("events")
	if events.Kind != SeqNode || len(events.Items) != 2 {
		t.Fatalf("events = %+v", events)
	}
	ev := events.Items[0]
	if got, _ := ev.Get("at").Duration(); got.Seconds() != 10 {
		t.Errorf("at = %v", got)
	}
	if got, _ := ev.Get("flash_crowd").Get("target").Str(); got != "lhr" {
		t.Errorf("target = %q", got)
	}
	if ev.Line != 12 {
		t.Errorf("first event line = %d, want 12", ev.Line)
	}
	plain, _ := n.Get("plain_list").StrSeq()
	if len(plain) != 2 || plain[1] != "two" {
		t.Errorf("plain_list = %v", plain)
	}
}

func TestDecodeYAMLErrorsCarryLines(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"tab indent", "a: 1\n\tb: 2", "line 2"},
		{"duplicate key", "a: 1\na: 2", "line 2"},
		{"bare scalar mid-doc", "a: 1\nnot a mapping entry!\n", "line 2"},
		{"unterminated flow", "a: [1, 2", "line 1"},
		{"seq in map", "a: 1\n- b", "line 2"},
		{"dedent too far", "a:\n    b: 1\n  c: 2", "line 3"},
		{"empty", "", "empty"},
		{"document marker", "a: 1\n---\nb: 2", "line 2"},
		{"document end marker", "a: 1\n...\n", "line 2"},
	}
	for _, tc := range cases {
		_, err := DecodeYAML([]byte(tc.src))
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestDecodeYAMLDepthLimit(t *testing.T) {
	var b strings.Builder
	for i := 0; i < maxYAMLDepth+2; i++ {
		b.WriteString(strings.Repeat("  ", i))
		b.WriteString("k:\n")
	}
	b.WriteString(strings.Repeat("  ", maxYAMLDepth+2))
	b.WriteString("v: 1\n")
	if _, err := DecodeYAML([]byte(b.String())); err == nil {
		t.Error("deeply nested document accepted")
	}
}
