package scenario

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"riptide/internal/cdn"
	"riptide/internal/core"
	"riptide/internal/guard"
	"riptide/internal/workload"
)

// Spec is a fully parsed and validated scenario file.
type Spec struct {
	// Name identifies the scenario in reports.
	Name string
	// Description is free-form operator documentation.
	Description string
	// Fleet is the simulated deployment, decoded straight into the config
	// the cluster is built from: the fleet block's pops and regions resolved
	// to PoPs in default-topology order, its riptide block the main run's
	// Riptide, its traffic block Traffic (organic_size_kb as a constant
	// OrganicSizes, which riptide-sim -sizes-csv replaces).
	Fleet cdn.Config
	// Duration is the total simulated run length.
	Duration time.Duration
	// Window, when set, overrides the event-derived "during" phase; the
	// paper's files use its start as the warm-up their figures skip.
	Window *Window
	// Arms are the compare block's runs, in file order, each the main fleet
	// with a patch applied.
	Arms []Arm
	// Events is the timed incident stream, in non-decreasing At order.
	Events []Event
	// ProbeFilter restricts which probes feed the phase CDFs.
	ProbeFilter ProbeFilter
	// Assertions are checked against the runs' metrics after execution.
	Assertions []Assertion
}

// Window bounds the "during" phase for before/during/after analysis.
type Window struct {
	Start, End time.Duration
}

// Arm is one named comparison run of a compare block: the main fleet with
// the arm's keys applied.
type Arm struct {
	Name string
	// Riptide is fleet.riptide with the arm's riptide keys applied; its
	// guard: false clears Guard.
	Riptide cdn.RiptideOptions
	// GossipFull (gossip: false) downgrades the run's gossip mode to
	// "full" — same sync schedule, whole tables every round — so the
	// assertions can price conditional deltas against whole-table sync.
	GossipFull bool
	// NoSharing (sharing: false) drops the enable_gossip_sharing event from
	// the run: the same fleet with every agent learning alone.
	NoSharing bool
}

// ProbeFilter restricts the probe population feeding the phase CDFs.
type ProbeFilter struct {
	// SizeKB keeps only probes of this payload (0 = all sizes).
	SizeKB int
	// FreshOnly keeps only probes that opened a new connection — the
	// population Riptide affects.
	FreshOnly bool
}

// Event is one timed incident.
type Event struct {
	// Line is the source line, for error reporting.
	Line int
	// At is when the event fires.
	At time.Duration
	// Kind names the event type.
	Kind string
	// Payload holds the kind-specific parameters: a pointer to one of the
	// cdn fault types (CapacityCut, FlashCrowd, PathFlap, PeerPartition,
	// RegionalDegradation, each with At already set) or to one of the
	// engine's own event types below.
	Payload any
}

// HostRebootEvent reboots one machine of a PoP. For bounds the disruption
// window for phase analysis (0 = rest of run). TrackRecovery, when > 0,
// records how many agent ticks (update intervals) the rebooted machine needs
// to regain that fraction of its own pre-reboot learned routes.
type HostRebootEvent struct {
	PoP           string
	Host          int
	For           time.Duration
	TrackRecovery float64
}

// RollingRebootsEvent reboots whole PoPs one after another. TrackRecovery,
// when > 0, records how many agent ticks the fleet needs to regain that
// fraction of its pre-wave learned routes.
type RollingRebootsEvent struct {
	cdn.RollingReboots
	TrackRecovery float64
}

// GossipSharingEvent starts fleet sharing: every machine runs riptided's
// fleet server and puller over a simulated wire (cdn.EnableGossipSharing).
// Mode is "ladder" (one conditional ?since= request per round: a 304, a delta
// or the full table) or "full" (every round ships whole tables). Peers is
// "all" (the PoP's other machines plus one machine of every other PoP) or
// "pop" (the PoP's other machines only). SeedEntries, when > 0, pre-populates
// every agent's table with that many synthetic warm destinations, modeling a
// long-lived back-office fleet whose table size a short run cannot grow.
type GossipSharingEvent struct {
	Interval    time.Duration
	Mode        string
	Peers       string
	SeedEntries int
}

// CwndSamplingEvent starts the `ss`-style window sampler of every machine
// (cdn.Cluster.StartCwndSampling) at the paper's Section IV-B1 cadence,
// cwndSampleInterval; the paper counts only connections opened after
// sampling began. PoPs names source PoPs whose windows get a metric of
// their own.
type CwndSamplingEvent struct {
	PoPs []string
}

// cwndSampleInterval is the cwnd sampler's cadence: the paper samples each
// minute.
const cwndSampleInterval = time.Minute

// Raw knob names for KnobEvent.
const (
	KnobPoPLoss      = "pop_loss"
	KnobPoPCapacity  = "pop_capacity"
	KnobPairCapacity = "pair_capacity"
	KnobPairRTTMs    = "pair_rtt_ms"
)

// KnobEvent is a raw override of one network knob at a point in time, for
// incident shapes the structured events do not cover.
type KnobEvent struct {
	Knob  string
	PoP   string
	A, B  string
	Value float64
}

// Parse decodes, schema-checks, and semantically validates a scenario file.
// It does everything `riptide-sim validate` needs without running anything.
func Parse(src []byte) (*Spec, error) {
	root, err := DecodeYAML(src)
	if err != nil {
		return nil, err
	}
	sp := &Spec{}
	var fleet, window, compare, filter, events, assertions *Node
	if root.Kind != MapNode {
		return nil, fmt.Errorf("line %d: scenario document must be a mapping", root.Line)
	}
	if err := decodeFields(root, "scenario", field{"name", &sp.Name}, field{"description", &sp.Description},
		field{"fleet", &fleet}, field{"duration", &sp.Duration}, field{"window", &window}, field{"compare", &compare},
		field{"events", &events}, field{"probe_filter", &filter}, field{"assertions", &assertions}); err != nil {
		return nil, err
	}
	switch {
	case sp.Name == "":
		return nil, fmt.Errorf("line %d: scenario needs a name", root.Line)
	case fleet == nil:
		return nil, fmt.Errorf("line %d: scenario needs a fleet block", root.Line)
	case root.Get("duration") == nil:
		return nil, fmt.Errorf("line %d: scenario needs a duration", root.Line)
	case sp.Duration <= 0:
		return nil, fmt.Errorf("line %d: duration %v must be positive", root.Get("duration").Line, sp.Duration)
	}
	if err := parseFleet(fleet, &sp.Fleet); err != nil {
		return nil, err
	}
	if window != nil {
		if sp.Window, err = parseWindow(window, sp.Duration); err != nil {
			return nil, err
		}
	}
	if filter != nil {
		if err := decodeFields(filter, "probe_filter", field{"size_kb", &sp.ProbeFilter.SizeKB},
			field{"fresh_only", &sp.ProbeFilter.FreshOnly}); err != nil {
			return nil, err
		}
		if err := rangeErr(filter, "size_kb", sp.ProbeFilter.SizeKB >= 0, "size_kb %d must not be negative", sp.ProbeFilter.SizeKB); err != nil {
			return nil, err
		}
	}
	popSet := popNameSet(sp.Fleet.PoPs)
	if events != nil {
		if sp.Events, err = parseEvents(events, popSet, sp.Duration, sp.Fleet.LossRate); err != nil {
			return nil, err
		}
	}
	if assertions != nil {
		if sp.Assertions, err = parseAssertions(assertions); err != nil {
			return nil, err
		}
	}
	if compare != nil {
		if sp.Arms, err = parseCompare(compare, sp); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// mainRun is the run the fleet block itself describes, named "riptide", or
// "control" when the fleet has riptide disabled.
func (sp *Spec) mainRun() Arm {
	name := "riptide"
	if !sp.Fleet.Riptide.Enabled {
		name = "control"
	}
	return Arm{Name: name, Riptide: sp.Fleet.Riptide}
}

// resolvePoPs returns the fleet block's deployment, in default-topology
// order: the named PoPs and every PoP of the named regions, or the whole
// default topology when the block names neither.
func resolvePoPs(names, regions []string) ([]cdn.PoP, error) {
	all := cdn.DefaultTopology()
	if len(names) == 0 && len(regions) == 0 {
		return all, nil
	}
	want := make(map[string]bool)
	for _, name := range names {
		if !slices.ContainsFunc(all, func(p cdn.PoP) bool { return p.Name == name }) {
			return nil, fmt.Errorf("fleet: unknown PoP %q (valid: %s)", name, popNames(all))
		}
		want[name] = true
	}
	for _, region := range regions {
		cont, err := continentByName(region)
		if err != nil {
			return nil, err
		}
		for _, p := range all {
			if p.Continent == cont {
				want[p.Name] = true
			}
		}
	}
	var out []cdn.PoP
	for _, p := range all {
		if want[p.Name] {
			out = append(out, p)
		}
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("fleet: needs at least two PoPs, selected %d", len(out))
	}
	return out, nil
}

// popNameSet is the set of pops' names.
func popNameSet(pops []cdn.PoP) map[string]bool {
	set := make(map[string]bool, len(pops))
	for _, p := range pops {
		set[p.Name] = true
	}
	return set
}

func popNames(pops []cdn.PoP) string {
	names := make([]string, len(pops))
	for i, p := range pops {
		names[i] = p.Name
	}
	return strings.Join(names, " ")
}

func continentByName(name string) (cdn.Continent, error) {
	switch name {
	case "europe":
		return cdn.Europe, nil
	case "north-america":
		return cdn.NorthAmerica, nil
	case "south-america":
		return cdn.SouthAmerica, nil
	case "asia":
		return cdn.Asia, nil
	case "oceania":
		return cdn.Oceania, nil
	}
	return 0, fmt.Errorf("fleet: unknown region %q (valid: europe north-america south-america asia oceania)", name)
}

// checkKeys rejects unknown keys with a line-numbered error.
func checkKeys(n *Node, valid ...string) error {
	for i, k := range n.Keys {
		ok := false
		for _, v := range valid {
			if k == v {
				ok = true
				break
			}
		}
		if !ok {
			sort.Strings(valid)
			return fmt.Errorf("line %d: unknown key %q (valid: %s)", n.KeyLines[i], k, strings.Join(valid, " "))
		}
	}
	return nil
}

func needMap(n *Node, what string) error {
	if n.Kind != MapNode {
		return fmt.Errorf("line %d: %s must be a mapping", n.Line, what)
	}
	return nil
}

// rangeErr is the post-decode range check of one key: nil when ok holds or
// n does not set key, else the message prefixed with the key's line.
func rangeErr(n *Node, key string, ok bool, format string, args ...any) error {
	v := n.Get(key)
	if ok || v == nil {
		return nil
	}
	return fmt.Errorf("line %d: "+format, append([]any{v.Line}, args...)...)
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func parseFleet(n *Node, f *cdn.Config) error {
	var pops, regions []string
	var riptide, traffic *Node
	if err := decodeFields(n, "fleet", field{"pops", &pops}, field{"regions", &regions},
		field{"hosts_per_pop", &f.HostsPerPoP}, field{"seed", &f.Seed}, field{"loss_rate", &f.LossRate},
		field{"rtt_jitter", &f.RTTJitter}, field{"capacity_segments", &f.CapacitySegments},
		field{"riptide", &riptide}, field{"traffic", &traffic}); err != nil {
		return err
	}
	if err := firstErr(
		rangeErr(n, "hosts_per_pop", f.HostsPerPoP >= 1 && f.HostsPerPoP <= 200, "hosts_per_pop %d out of [1,200]", f.HostsPerPoP),
		rangeErr(n, "loss_rate", f.LossRate >= 0 && f.LossRate < 1, "loss_rate %v out of [0,1)", f.LossRate),
		rangeErr(n, "rtt_jitter", f.RTTJitter >= 0, "rtt_jitter %v must not be negative", f.RTTJitter),
		rangeErr(n, "capacity_segments", f.CapacitySegments >= 0, "capacity_segments %d must not be negative", f.CapacitySegments),
	); err != nil {
		return err
	}
	var err error
	if f.PoPs, err = resolvePoPs(pops, regions); err != nil {
		return err
	}
	if riptide != nil {
		if err := parseRiptide(riptide, &f.Riptide); err != nil {
			return err
		}
	}
	if traffic != nil {
		return parseTraffic(traffic, &f.Traffic, popNameSet(f.PoPs))
	}
	return nil
}

// riptideFields binds the keys a riptide block and a compare arm share.
func riptideFields(r *cdn.RiptideOptions) []field {
	return []field{{"enabled", &r.Enabled}, {"cmax", &r.CMax}, {"cmin", &r.CMin}, {"alpha", &r.Alpha},
		{"update_interval", &r.UpdateInterval}, {"ttl", &r.TTL}, {"prefix_bits", &r.PrefixBits},
		{"combiner", &r.Combiner}, {"history", &r.History}}
}

// checkRiptide range-checks the riptideFields keys n sets.
func checkRiptide(n *Node, r *cdn.RiptideOptions) error {
	_, histErr := core.HistoryByName(r.History, 0)
	return firstErr(
		rangeErr(n, "cmax", r.CMax >= 0, "cmax %d must not be negative", r.CMax),
		rangeErr(n, "cmin", r.CMin >= 0, "cmin %d must not be negative", r.CMin),
		rangeErr(n, "alpha", r.Alpha >= 0 && r.Alpha <= 1, "alpha %v out of range [0,1]", r.Alpha),
		rangeErr(n, "prefix_bits", r.PrefixBits >= 0, "prefix_bits %d must not be negative", r.PrefixBits),
		rangeErr(n, "history", histErr == nil, "history %q unknown (valid: ewma none trend)", r.History),
	)
}

func parseRiptide(n *Node, r *cdn.RiptideOptions) error {
	var guardNode *Node
	if err := decodeFields(n, "riptide", append(riptideFields(r), field{"guard", &guardNode})...); err != nil {
		return err
	}
	if err := checkRiptide(n, r); err != nil || guardNode == nil {
		return err
	}
	g := &guard.Config{}
	if err := decodeFields(guardNode, "guard", field{"holdback", &g.Holdback}, field{"min_segments", &g.MinSegments},
		field{"hysteresis_ticks", &g.HysteresisTicks}, field{"quarantine_ttl", &g.QuarantineTTL}); err != nil {
		return err
	}
	if !r.Enabled {
		return fmt.Errorf("line %d: guard needs riptide enabled", guardNode.Line)
	}
	r.Guard = g
	return nil
}

// parseTraffic decodes the traffic block; pops is the fleet, which the
// organic rates must name.
func parseTraffic(n *Node, t *cdn.TrafficOptions, pops map[string]bool) error {
	var sizes, organic *Node
	var organicKB float64
	if err := decodeFields(n, "traffic", field{"probe_interval", &t.ProbeInterval}, field{"probe_sizes_kb", &sizes},
		field{"close_after_transfer_prob", &t.CloseAfterTransferProb}, field{"idle_timeout", &t.IdleTimeout},
		field{"organic", &organic}, field{"organic_size_kb", &organicKB}); err != nil {
		return err
	}
	if err := firstErr(
		rangeErr(n, "probe_interval", t.ProbeInterval > 0, "probe_interval %v must be positive", t.ProbeInterval),
		rangeErr(n, "close_after_transfer_prob", t.CloseAfterTransferProb >= 0 && t.CloseAfterTransferProb <= 1,
			"close_after_transfer_prob %v out of [0,1]", t.CloseAfterTransferProb),
		rangeErr(n, "idle_timeout", t.IdleTimeout > 0, "idle_timeout %v must be positive", t.IdleTimeout),
		rangeErr(n, "organic_size_kb", organicKB > 0, "organic_size_kb %v must be positive", organicKB),
	); err != nil {
		return err
	}
	if organicKB > 0 {
		t.OrganicSizes = workload.Constant(organicKB * 1024)
	}
	if sizes != nil {
		if sizes.Kind != SeqNode {
			return fmt.Errorf("line %d: probe_sizes_kb must be a sequence", sizes.Line)
		}
		for _, it := range sizes.Items {
			iv, err := it.Int()
			if err != nil {
				return err
			}
			if iv < 1 {
				return fmt.Errorf("line %d: probe size %d KB must be >= 1", it.Line, iv)
			}
			t.ProbeSizes = append(t.ProbeSizes, int(iv)*1024)
		}
	}
	if organic == nil {
		return nil
	}
	if err := needMap(organic, "organic"); err != nil {
		return err
	}
	t.OrganicRates = make(map[string]float64, len(organic.Keys))
	for i, pop := range organic.Keys {
		rate, err := organic.Vals[i].Float()
		if err != nil {
			return err
		}
		if rate <= 0 {
			return fmt.Errorf("line %d: organic rate %v for %q must be positive", organic.KeyLines[i], rate, pop)
		}
		if !pops[pop] {
			return fmt.Errorf("fleet: organic rate for unknown PoP %q", pop)
		}
		t.OrganicRates[pop] = rate
	}
	return nil
}

func parseWindow(n *Node, total time.Duration) (*Window, error) {
	w := &Window{}
	if err := decodeFields(n, "window", field{"start", &w.Start}, field{"end", &w.End}); err != nil {
		return nil, err
	}
	if n.Get("start") == nil || n.Get("end") == nil {
		return nil, fmt.Errorf("line %d: window needs start and end", n.Line)
	}
	if w.Start < 0 || w.End <= w.Start || w.End > total {
		return nil, fmt.Errorf("line %d: window [%v, %v) must satisfy 0 <= start < end <= duration", n.Line, w.Start, w.End)
	}
	return w, nil
}

// parseCompare decodes the compare block: one arm per key, each a patch of
// the main fleet's riptide block plus the guard/gossip/sharing toggles. The
// arm's name addresses its metrics in assertions, so it must be a metric
// name segment and must differ from the main run's.
func parseCompare(n *Node, sp *Spec) ([]Arm, error) {
	if err := needMap(n, "compare"); err != nil {
		return nil, err
	}
	if len(n.Keys) == 0 {
		return nil, fmt.Errorf("line %d: compare block names no arm", n.Line)
	}
	gossipEvent := false
	for _, ev := range sp.Events {
		if _, ok := ev.Payload.(*GossipSharingEvent); ok {
			gossipEvent = true
		}
	}
	arms := make([]Arm, 0, len(n.Keys))
	for i, name := range n.Keys {
		v, line := n.Vals[i], n.KeyLines[i]
		if strings.Trim(name, "abcdefghijklmnopqrstuvwxyz0123456789_") != "" {
			return nil, fmt.Errorf("line %d: arm name %q must be lower-case letters, digits and underscores", line, name)
		}
		if name == sp.mainRun().Name {
			return nil, fmt.Errorf("line %d: arm %q has the main run's name", line, name)
		}
		arm := Arm{Name: name, Riptide: sp.Fleet.Riptide}
		guard, gossip, sharing := true, true, true
		fields := append(riptideFields(&arm.Riptide), field{"guard", &guard}, field{"gossip", &gossip}, field{"sharing", &sharing})
		if err := decodeFields(v, "arm "+name, fields...); err != nil {
			return nil, err
		}
		if err := checkRiptide(v, &arm.Riptide); err != nil {
			return nil, err
		}
		switch {
		case len(v.Keys) == 0:
			return nil, fmt.Errorf("line %d: arm %s sets no knob", line, name)
		case v.Get("guard") != nil && sp.Fleet.Riptide.Guard == nil:
			return nil, fmt.Errorf("line %d: arm %s: guard needs fleet.riptide.guard configured", line, name)
		case v.Get("gossip") != nil && !gossipEvent:
			return nil, fmt.Errorf("line %d: arm %s: gossip needs an enable_gossip_sharing event", line, name)
		case v.Get("sharing") != nil && !gossipEvent:
			return nil, fmt.Errorf("line %d: arm %s: sharing needs an enable_gossip_sharing event", line, name)
		}
		if !guard {
			arm.Riptide.Guard = nil
		}
		arm.GossipFull, arm.NoSharing = !gossip, !sharing
		arms = append(arms, arm)
	}
	return arms, nil
}
