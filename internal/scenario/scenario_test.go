package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"riptide/internal/cdn"
)

const validScenario = `
name: unit-test
description: parse-layer exercise
fleet:
  pops: [lhr, fra, jfk, nrt]
  hosts_per_pop: 2
  seed: 7
  loss_rate: 0.001
  capacity_segments: 400
  riptide:
    enabled: true
    cmax: 100
    guard:
      min_segments: 24
      hysteresis_ticks: 2
      quarantine_ttl: 10m
  traffic:
    probe_interval: 30s
    probe_sizes_kb: [50]
    organic:
      lhr: 2.0
duration: 6m
compare:
  control:
    guard: false
events:
  - at: 0s
    enable_gossip_sharing:
      interval: 5s
      peers: pop
  - at: 2m
    capacity_cut:
      pop: jfk
      from: lhr
      for: 2m
      segments: 10
      restore_segments: 400
  - at: 3m
    flash_crowd:
      target: fra
      for: 30s
      rate_per_pop: 1.0
assertions:
  - riptide.quarantines >= 1
  - riptide.retrans.during < control.retrans.during
  - riptide.probe_ms.p99.during / riptide.probe_ms.p99.before <= 10
`

// sharingEvent is validScenario's enable_gossip_sharing event.
const sharingEvent = "  - at: 0s\n    enable_gossip_sharing:\n      interval: 5s\n      peers: pop\n"

func TestParseValidScenario(t *testing.T) {
	sp, err := Parse([]byte(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "unit-test" {
		t.Errorf("name = %q", sp.Name)
	}
	if sp.Duration != 6*time.Minute {
		t.Errorf("duration = %v", sp.Duration)
	}
	if len(sp.Events) != 3 {
		t.Fatalf("events = %d", len(sp.Events))
	}
	if sp.Events[1].Kind != "capacity_cut" {
		t.Errorf("event[1] kind = %q", sp.Events[1].Kind)
	}
	if gs, ok := sp.Events[0].Payload.(*GossipSharingEvent); !ok || gs.Peers != "pop" || gs.Mode != "ladder" {
		t.Errorf("gossip sharing payload = %+v", sp.Events[0].Payload)
	}
	cc, ok := sp.Events[1].Payload.(*cdn.CapacityCut)
	if !ok || cc.PoP != "jfk" || cc.From != "lhr" || cc.Segments != 10 || cc.At != 2*time.Minute {
		t.Errorf("capacity cut payload = %+v", sp.Events[1].Payload)
	}
	if sp.Fleet.Riptide.Guard == nil || sp.Fleet.Riptide.Guard.MinSegments != 24 {
		t.Errorf("guard = %+v", sp.Fleet.Riptide.Guard)
	}
	if len(sp.Assertions) != 3 {
		t.Fatalf("assertions = %d", len(sp.Assertions))
	}
	if len(sp.Arms) != 1 || sp.Arms[0].Name != "control" || sp.Arms[0].Riptide.Guard != nil ||
		!sp.Arms[0].Riptide.Enabled || sp.Arms[0].Riptide.CMax != 100 {
		t.Errorf("arms = %+v", sp.Arms)
	}
	// The during window is the union of the cut and the crowd.
	start, end := sp.phaseWindow()
	if start != 2*time.Minute || end != 4*time.Minute {
		t.Errorf("window = [%v, %v)", start, end)
	}
	if len(sp.Fleet.PoPs) != 4 {
		t.Errorf("pops = %v", sp.Fleet.PoPs)
	}
}

// mutate applies a line-level edit to the valid scenario, for error-path
// coverage without repeating the whole document.
func mutate(t *testing.T, old, new string) string {
	t.Helper()
	if !strings.Contains(validScenario, old) {
		t.Fatalf("fixture does not contain %q", old)
	}
	return strings.Replace(validScenario, old, new, 1)
}

func TestParseRejections(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown top key", mutate(t, "description:", "descriptoin:"), "unknown key"},
		{"unknown pop", mutate(t, "pops: [lhr, fra, jfk, nrt]", "pops: [lhr, fra, jfk, xxx]"), `unknown PoP "xxx"`},
		{"missing name", mutate(t, "name: unit-test", "description2: x"), "unknown key"},
		{"missing duration", mutate(t, "duration: 6m", "duration2: 6m"), "unknown key"},
		{"bad duration", mutate(t, "duration: 6m", "duration: six"), "not a duration"},
		{"event out of order", mutate(t, "  - at: 3m\n    flash_crowd:", "  - at: 1m\n    flash_crowd:"), "time order"},
		{"event after end", mutate(t, "at: 3m", "at: 3h"), "outside the run"},
		{"unknown event kind", mutate(t, "flash_crowd:", "flashcrowd:"), "unknown event kind"},
		{"unknown event kind lists every kind", mutate(t, "flash_crowd:", "flashcrowd:"), "set_knob start_cwnd_sampling)"},
		{"event without a kind", mutate(t, "  - at: 3m\n", "  - at: 3m\n  - at: 3m\n"), "start_cwnd_sampling)"},
		{"key starting like a document marker", mutate(t, "description: parse-layer exercise", "description: parse-layer exercise\n---x: 2"), `line 4: unknown key "---x"`},
		{"two kinds in one event", mutate(t, "    flash_crowd:", "    degradation: {pop: lhr, for: 1s, loss_rate: 0.1}\n    flash_crowd:"), "two kinds"},
		{"cut self pair", mutate(t, "from: lhr", "from: jfk"), "must differ"},
		{"cut zero segments", mutate(t, "segments: 10", "segments: 0"), ">= 1"},
		{"bad assertion op", mutate(t, "riptide.quarantines >= 1", "riptide.quarantines ~ 1"), "no comparison"},
		{"unqualified metric", mutate(t, "riptide.quarantines >= 1", "quarantines >= 1"), "run-qualified"},
		{"organic unknown pop", mutate(t, "      lhr: 2.0", "      syd: 2.0"), `unknown PoP "syd"`},
		{"guard without riptide", mutate(t, "enabled: true", "enabled: false"), "guard needs riptide"},
		{"compare without arms", mutate(t, "compare:\n  control:\n    guard: false", "compare: {}"), "names no arm"},
		{"arm without knob", mutate(t, "  control:\n    guard: false", "  control: {}"), "sets no knob"},
		{"arm with an unknown knob", mutate(t, "    guard: false", "    guard: false\n    cmaxx: 50"), `unknown key "cmaxx"`},
		{"arm with a bad knob value", mutate(t, "    guard: false", "    combiner: median"), `combiner "median" unknown`},
		{"duplicate arm name", mutate(t, "    guard: false", "    guard: false\n  control:\n    cmax: 50"), `duplicate key "control"`},
		{"arm named like the main run", mutate(t, "  control:\n    guard: false", "  riptide:\n    cmax: 50"), "main run's name"},
		{"arm name not a metric segment", mutate(t, "  control:\n    guard: false", "  c-max.50:\n    cmax: 50"), "lower-case letters"},
		{"old knob-only compare form", mutate(t, "  control:\n    guard: false", "  guard: false"), "arm guard must be a mapping"},
		{"guard patch without fleet guard", strings.Replace(mutate(t, "    guard:\n      min_segments: 24\n      hysteresis_ticks: 2\n      quarantine_ttl: 10m\n", ""),
			"  - riptide.quarantines >= 1\n", "", 1), "guard needs fleet.riptide.guard"},
		{"compare sharing without a sharing event", strings.Replace(mutate(t, "    guard: false", "    sharing: false"), sharingEvent, "", 1), "sharing needs"},
		{"compare gossip without a gossip event", strings.Replace(mutate(t, "    guard: false", "    gossip: false"), sharingEvent, "", 1), "gossip needs"},
		{"unknown gossip peer set", mutate(t, "      peers: pop", "      peers: region"), `peers "region" unknown`},
		{"two cwnd samplers", mutate(t, "  - at: 2m\n    capacity_cut:", "  - at: 1m\n    start_cwnd_sampling: {}\n  - at: 1m\n    start_cwnd_sampling: {}\n  - at: 2m\n    capacity_cut:"), "listed twice"},
		{"cwnd sampler on an unknown PoP", mutate(t, "  - at: 2m\n    capacity_cut:", "  - at: 1m\n    start_cwnd_sampling: {pops: [syd]}\n  - at: 2m\n    capacity_cut:"), `unknown PoP "syd"`},
		{"cwnd sampler with its own cadence", mutate(t, "  - at: 2m\n    capacity_cut:", "  - at: 1m\n    start_cwnd_sampling: {interval: 30s}\n  - at: 2m\n    capacity_cut:"), `unknown key "interval"`},
		{"unknown history", mutate(t, "    cmax: 100", "    cmax: 100\n    history: fifo"), `history "fifo" unknown`},
		{"trend history with alpha past 1", mutate(t, "    cmax: 100", "    cmax: 100\n    history: trend\n    alpha: 1.5"), "alpha 1.5 out of range [0,1]"},
		{"unknown history lists every policy", mutate(t, "    cmax: 100", "    cmax: 100\n    history: fifo"), "(valid: ewma none trend)"},
		{"shift warning damping past 1", mutate(t, "  - at: 2m\n    capacity_cut:", "  - at: 1m\n    expect_shift: {pops: [lhr], to: jfk, factor: 1.5}\n  - at: 2m\n    capacity_cut:"), "factor 1.5 out of (0,1]"},
		{"shift warning without damping", mutate(t, "  - at: 2m\n    capacity_cut:", "  - at: 1m\n    expect_shift: {pops: [lhr], to: jfk}\n  - at: 2m\n    capacity_cut:"), "factor 0 out of (0,1]"},
		{"shift warning onto an unknown PoP", mutate(t, "  - at: 2m\n    capacity_cut:", "  - at: 1m\n    expect_shift: {pops: [lhr], to: syd, factor: 0.5}\n  - at: 2m\n    capacity_cut:"), `unknown PoP "syd"`},
		{"shift warning to an unknown PoP", mutate(t, "  - at: 2m\n    capacity_cut:", "  - at: 1m\n    expect_shift: {pops: [syd], to: jfk, factor: 0.5}\n  - at: 2m\n    capacity_cut:"), `unknown PoP "syd"`},
		{"shift warning about itself", mutate(t, "  - at: 2m\n    capacity_cut:", "  - at: 1m\n    expect_shift: {pops: [lhr, jfk], to: jfk, factor: 0.5}\n  - at: 2m\n    capacity_cut:"), `warns "jfk" about itself`},
		{"shift warning to nobody", mutate(t, "  - at: 2m\n    capacity_cut:", "  - at: 1m\n    expect_shift: {to: jfk, factor: 0.5}\n  - at: 2m\n    capacity_cut:"), "names no PoP"},
		{"sharing not at zero", mutate(t, "  - at: 0s\n    enable_gossip_sharing:", "  - at: 0s\n    peer_partition: {a: lhr, b: fra, for: 10s}\n  - at: 1s\n    enable_gossip_sharing:"), "at 0s"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.src))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseErrorsAreLineNumbered(t *testing.T) {
	// An unknown key deep in the document must point at its own line.
	src := "name: x\nfleet:\n  pops: [lhr, fra]\n  riptide:\n    enabled: true\n    cmaxx: 5\nduration: 1m\n"
	_, err := Parse([]byte(src))
	if err == nil {
		t.Fatal("accepted")
	}
	if !strings.Contains(err.Error(), "line 6") {
		t.Errorf("error %q does not carry line 6", err)
	}
}

func TestRegionSelection(t *testing.T) {
	parse := func(fleet string) (*Spec, error) {
		return Parse([]byte("name: x\nfleet: {" + fleet + "}\nduration: 1m\n"))
	}
	sp, err := parse("regions: [oceania]")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Fleet.PoPs) != 3 {
		t.Errorf("oceania = %d PoPs, want 3", len(sp.Fleet.PoPs))
	}
	if _, err := parse("regions: [atlantis]"); err == nil || !strings.Contains(err.Error(), "unknown region") {
		t.Errorf("atlantis: %v", err)
	}
	// PoPs and regions union without duplicates, in topology order.
	sp, err = parse("pops: [syd, lhr], regions: [oceania]")
	if err != nil || len(sp.Fleet.PoPs) != 4 || sp.Fleet.PoPs[0].Name != "lhr" {
		t.Errorf("union = %v, %v", sp, err)
	}
}

func TestAssertionEval(t *testing.T) {
	metrics := map[string]float64{
		"riptide.p99.during": 300,
		"riptide.p99.before": 200,
		"riptide.zero":       0,
	}
	cases := []struct {
		src  string
		pass bool
	}{
		{"riptide.p99.during / riptide.p99.before <= 1.5", true},
		{"riptide.p99.during / riptide.p99.before <= 1.4", false},
		{"riptide.p99.during - riptide.p99.before == 100", true},
		{"riptide.p99.during > 299", true},
		{"riptide.p99.before * 2 >= 400", true},
		{"riptide.p99.during/riptide.p99.before <= 1.5", true}, // no spaces
		{"riptide.p99.during / riptide.zero < 10", false},      // division by zero fails
		{"riptide.missing < 10", false},                        // missing metric fails
	}
	for _, tc := range cases {
		a, err := ParseAssertion(tc.src)
		if err != nil {
			t.Errorf("%q: %v", tc.src, err)
			continue
		}
		res := a.Eval(metrics)
		if res.Pass != tc.pass {
			t.Errorf("%q: pass = %v (detail %q)", tc.src, res.Pass, res.Detail)
		}
		if !res.Pass && res.Detail == "" {
			t.Errorf("%q: failed without detail", tc.src)
		}
	}
}

func TestAssertionMissingMetricSuggests(t *testing.T) {
	a, err := ParseAssertion("riptide.probe_ms.p99.durin <= 1")
	if err != nil {
		t.Fatal(err)
	}
	res := a.Eval(map[string]float64{"riptide.probe_ms.p99.during": 1, "control.retrans.total": 2})
	if res.Pass {
		t.Fatal("passed with missing metric")
	}
	if !strings.Contains(res.Detail, "riptide.probe_ms.p99.during") {
		t.Errorf("detail %q does not suggest the close metric", res.Detail)
	}
}

// TestEventRejectionsAreLineNumbered feeds every event kind an unknown PoP, a
// negative duration and a disruption running past the end of the run. The
// events parse straight into the cdn fault types, whose own Validate reports
// the parameter errors; each must still come back naming the event's line
// and kind.
func TestEventRejectionsAreLineNumbered(t *testing.T) {
	const doc = "name: t\nfleet:\n  pops: [lhr, fra, jfk]\nduration: 10m\nevents:\n  - at: %s\n    %s: {%s}\n"
	cases := []struct {
		kind, at, body, want string
	}{
		{"capacity_cut", "1m", "pop: xxx, from: lhr, for: 1m, segments: 10", `unknown PoP "xxx"`},
		{"capacity_cut", "1m", "pop: jfk, from: lhr, for: -1m, segments: 10", "must not be negative"},
		{"capacity_cut", "1m", "pop: jfk, from: lhr, for: 10m, segments: 10", "past the run end"},
		{"host_reboot", "1m", "pop: xxx, host: 0", `unknown PoP "xxx"`},
		{"host_reboot", "1m", "pop: lhr, host: 0, for: -1m", "must not be negative"},
		{"host_reboot", "1m", "pop: lhr, host: 0, for: 10m", "past the run end"},
		{"rolling_reboots", "1m", "pops: [lhr, xxx], interval: 1m", `unknown PoP "xxx"`},
		{"rolling_reboots", "1m", "pops: [lhr, fra], interval: -1m", "positive interval"},
		{"rolling_reboots", "1m", "pops: [lhr, fra], interval: 6m", "past the run end"},
		{"flash_crowd", "1m", "target: xxx, for: 1m, rate_per_pop: 1", `unknown PoP "xxx"`},
		{"flash_crowd", "1m", "target: fra, for: -1m, rate_per_pop: 1", "positive rate and duration"},
		{"flash_crowd", "1m", "target: fra, for: 10m, rate_per_pop: 1", "past the run end"},
		{"path_flap", "1m", "a: lhr, b: xxx, for: 1m, rtt_scale: 2", `unknown PoP "xxx"`},
		{"path_flap", "1m", "a: lhr, b: jfk, for: -1m, rtt_scale: 2", "positive duration"},
		{"path_flap", "1m", "a: lhr, b: jfk, for: 10m, rtt_scale: 2", "past the run end"},
		{"peer_partition", "1m", "a: xxx, b: jfk, for: 1m", `unknown PoP "xxx"`},
		{"peer_partition", "1m", "a: lhr, b: jfk, for: -1m", "positive duration"},
		{"peer_partition", "1m", "a: lhr, b: jfk, for: 10m", "past the run end"},
		{"degradation", "1m", "pop: xxx, for: 1m, loss_rate: 0.05", `unknown PoP "xxx"`},
		{"degradation", "1m", "pop: jfk, for: -1m, loss_rate: 0.05", "positive duration"},
		{"degradation", "1m", "pop: jfk, for: 10m, loss_rate: 0.05", "past the run end"},
		{"set_knob", "1m", "knob: pop_loss, pop: xxx, value: 0.1", `unknown PoP "xxx"`},
		{"enable_gossip_sharing", "0s", "interval: -5s", "must be positive"},
		{"enable_gossip_sharing", "0s", "interval: 5s, peers: region", `peers "region" unknown`},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(fmt.Sprintf(doc, tc.at, tc.kind, tc.body)))
		if err == nil {
			t.Errorf("%s {%s}: accepted", tc.kind, tc.body)
			continue
		}
		if prefix := "line 6: " + tc.kind + ": "; !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s {%s}: error %q, want prefix %q and %q", tc.kind, tc.body, err, prefix, tc.want)
		}
	}
}
