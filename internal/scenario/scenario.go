package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"riptide/internal/cdn"
)

// Spec is a fully parsed and validated scenario file.
type Spec struct {
	// Name identifies the scenario in reports.
	Name string
	// Description is free-form operator documentation.
	Description string
	// Fleet defines the simulated deployment.
	Fleet FleetSpec
	// Duration is the total simulated run length.
	Duration time.Duration
	// Window, when set, overrides the event-derived "during" phase.
	Window *Window
	// Compare, when set, adds a control run differing in the named knobs.
	Compare *CompareSpec
	// Events is the timed incident stream, in non-decreasing At order.
	Events []Event
	// ProbeFilter restricts which probes feed the phase CDFs.
	ProbeFilter ProbeFilter
	// Assertions are checked against the runs' metrics after execution.
	Assertions []Assertion
}

// FleetSpec selects the deployment and its knobs.
type FleetSpec struct {
	// PoPs names a subset of the 34-PoP default topology; empty (together
	// with Regions) means the full deployment.
	PoPs []string
	// Regions selects whole continents by name (europe, north-america,
	// south-america, asia, oceania); unioned with PoPs.
	Regions []string
	// HostsPerPoP is machines per PoP (default 1).
	HostsPerPoP int
	// Seed drives all randomness.
	Seed int64
	// LossRate / RTTJitter / CapacitySegments mirror cdn.Config.
	LossRate         float64
	RTTJitter        float64
	CapacitySegments int
	// Riptide configures the per-host agents.
	Riptide RiptideSpec
	// Traffic shapes probes and organic load.
	Traffic TrafficSpec
}

// RiptideSpec mirrors cdn.RiptideOptions.
type RiptideSpec struct {
	Enabled        bool
	CMax, CMin     int
	Alpha          float64
	UpdateInterval time.Duration
	TTL            time.Duration
	PrefixBits     int
	// Guard, when set, gives every agent a safety governor.
	Guard *GuardSpec
}

// GuardSpec mirrors the guard.Config knobs a scenario may set.
type GuardSpec struct {
	Holdback        float64
	MinSegments     int64
	HysteresisTicks int
	QuarantineTTL   time.Duration
}

// OrganicRate is one PoP's background-traffic rate, kept as an ordered list
// so runs never depend on map iteration order.
type OrganicRate struct {
	PoP  string
	Rate float64
}

// TrafficSpec mirrors cdn.TrafficOptions.
type TrafficSpec struct {
	ProbeInterval          time.Duration
	ProbeSizesKB           []int
	CloseAfterTransferProb float64
	IdleTimeout            time.Duration
	Organic                []OrganicRate
	// OrganicSizeKB fixes organic object sizes; 0 keeps the paper's
	// Figure 2 mix.
	OrganicSizeKB float64
}

// Window bounds the "during" phase for before/during/after analysis.
type Window struct {
	Start, End time.Duration
}

// CompareSpec derives the control run from the main run.
type CompareSpec struct {
	// Riptide, when set, overrides RiptideSpec.Enabled in the control run.
	Riptide *bool
	// Guard, when set false, strips the safety governor in the control run.
	Guard *bool
	// Gossip, when set false, downgrades the control run's gossip mode to
	// "full" — same sync schedule, whole tables every round — so the
	// assertions can price conditional deltas against whole-table sync.
	Gossip *bool
	// Sharing, when set false, drops the enable_fleet_sharing and
	// enable_gossip_sharing events from the control run: the same fleet
	// with every agent learning alone.
	Sharing *bool
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

// FleetSharingEvent enables periodic same-PoP snapshot exchange.
type FleetSharingEvent struct {
	Interval time.Duration
}

// GossipSharingEvent enables cross-PoP anti-entropy table sync with full
// wire-cost accounting (cdn.EnableGossipSharing). Mode is "ladder" (one
// conditional ?since= request per round: a 304, a delta or the full table)
// or "full" (every round ships whole tables). SeedEntries, when > 0, pre-populates every
// agent's table with that many synthetic warm destinations, modeling a
// long-lived back-office fleet whose table size a short run cannot grow.
type GossipSharingEvent struct {
	Interval    time.Duration
	Mode        string
	SeedEntries int
}

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
	if root.Kind != MapNode {
		return nil, fmt.Errorf("line %d: scenario document must be a mapping", root.Line)
	}
	if err := checkKeys(root, "name", "description", "fleet", "duration", "window", "compare", "events", "probe_filter", "assertions"); err != nil {
		return nil, err
	}
	sp := &Spec{}
	if n := root.Get("name"); n != nil {
		if sp.Name, err = n.Str(); err != nil {
			return nil, err
		}
	}
	if sp.Name == "" {
		return nil, fmt.Errorf("line %d: scenario needs a name", root.Line)
	}
	if n := root.Get("description"); n != nil {
		if sp.Description, err = n.Str(); err != nil {
			return nil, err
		}
	}
	fleetNode := root.Get("fleet")
	if fleetNode == nil {
		return nil, fmt.Errorf("line %d: scenario needs a fleet block", root.Line)
	}
	if err := parseFleet(fleetNode, &sp.Fleet); err != nil {
		return nil, err
	}
	durNode := root.Get("duration")
	if durNode == nil {
		return nil, fmt.Errorf("line %d: scenario needs a duration", root.Line)
	}
	if sp.Duration, err = durNode.Duration(); err != nil {
		return nil, err
	}
	if sp.Duration <= 0 {
		return nil, fmt.Errorf("line %d: duration %v must be positive", durNode.Line, sp.Duration)
	}
	if n := root.Get("window"); n != nil {
		if sp.Window, err = parseWindow(n, sp.Duration); err != nil {
			return nil, err
		}
	}
	if n := root.Get("compare"); n != nil {
		if sp.Compare, err = parseCompare(n); err != nil {
			return nil, err
		}
	}
	if n := root.Get("probe_filter"); n != nil {
		if err := parseProbeFilter(n, &sp.ProbeFilter); err != nil {
			return nil, err
		}
	}
	pops, err := sp.Fleet.ResolvePoPs()
	if err != nil {
		return nil, err
	}
	popSet := make(map[string]bool, len(pops))
	for _, p := range pops {
		popSet[p.Name] = true
	}
	for _, o := range sp.Fleet.Traffic.Organic {
		if !popSet[o.PoP] {
			return nil, fmt.Errorf("fleet: organic rate for unknown PoP %q", o.PoP)
		}
	}
	if n := root.Get("events"); n != nil {
		if sp.Events, err = parseEvents(n, popSet, sp.Duration, sp.Fleet.LossRate); err != nil {
			return nil, err
		}
	}
	if n := root.Get("assertions"); n != nil {
		if sp.Assertions, err = parseAssertions(n); err != nil {
			return nil, err
		}
	}
	if sp.Compare != nil && sp.Compare.Guard != nil && !*sp.Compare.Guard && sp.Fleet.Riptide.Guard == nil {
		return nil, fmt.Errorf("compare: guard: false needs fleet.riptide.guard configured")
	}
	if c := sp.Compare; c != nil && (c.Gossip != nil || c.Sharing != nil) {
		gossip, sharing := false, false
		for _, ev := range sp.Events {
			switch ev.Payload.(type) {
			case *GossipSharingEvent:
				gossip, sharing = true, true
			case *FleetSharingEvent:
				sharing = true
			}
		}
		if c.Gossip != nil && !gossip {
			return nil, fmt.Errorf("compare: gossip needs an enable_gossip_sharing event")
		}
		if c.Sharing != nil && !sharing {
			return nil, fmt.Errorf("compare: sharing needs an enable_fleet_sharing or enable_gossip_sharing event")
		}
	}
	return sp, nil
}

// ResolvePoPs returns the scenario's deployment, in default-topology order.
func (f *FleetSpec) ResolvePoPs() ([]cdn.PoP, error) {
	all := cdn.DefaultTopology()
	if len(f.PoPs) == 0 && len(f.Regions) == 0 {
		return all, nil
	}
	want := make(map[string]bool)
	for _, name := range f.PoPs {
		found := false
		for _, p := range all {
			if p.Name == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fleet: unknown PoP %q (valid: %s)", name, popNames(all))
		}
		want[name] = true
	}
	for _, region := range f.Regions {
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

func parseFleet(n *Node, f *FleetSpec) error {
	if err := needMap(n, "fleet"); err != nil {
		return err
	}
	if err := checkKeys(n, "pops", "regions", "hosts_per_pop", "seed", "loss_rate", "rtt_jitter", "capacity_segments", "riptide", "traffic"); err != nil {
		return err
	}
	var err error
	if v := n.Get("pops"); v != nil {
		if f.PoPs, err = v.StrSeq(); err != nil {
			return err
		}
	}
	if v := n.Get("regions"); v != nil {
		if f.Regions, err = v.StrSeq(); err != nil {
			return err
		}
	}
	if v := n.Get("hosts_per_pop"); v != nil {
		iv, err := v.Int()
		if err != nil {
			return err
		}
		if iv < 1 || iv > 200 {
			return fmt.Errorf("line %d: hosts_per_pop %d out of [1,200]", v.Line, iv)
		}
		f.HostsPerPoP = int(iv)
	}
	if v := n.Get("seed"); v != nil {
		if f.Seed, err = v.Int(); err != nil {
			return err
		}
	}
	if v := n.Get("loss_rate"); v != nil {
		if f.LossRate, err = v.Float(); err != nil {
			return err
		}
		if f.LossRate < 0 || f.LossRate >= 1 {
			return fmt.Errorf("line %d: loss_rate %v out of [0,1)", v.Line, f.LossRate)
		}
	}
	if v := n.Get("rtt_jitter"); v != nil {
		if f.RTTJitter, err = v.Float(); err != nil {
			return err
		}
		if f.RTTJitter < 0 {
			return fmt.Errorf("line %d: rtt_jitter %v must not be negative", v.Line, f.RTTJitter)
		}
	}
	if v := n.Get("capacity_segments"); v != nil {
		iv, err := v.Int()
		if err != nil {
			return err
		}
		if iv < 0 {
			return fmt.Errorf("line %d: capacity_segments %d must not be negative", v.Line, iv)
		}
		f.CapacitySegments = int(iv)
	}
	if v := n.Get("riptide"); v != nil {
		if err := parseRiptide(v, &f.Riptide); err != nil {
			return err
		}
	}
	if v := n.Get("traffic"); v != nil {
		if err := parseTraffic(v, &f.Traffic); err != nil {
			return err
		}
	}
	return nil
}

func parseRiptide(n *Node, r *RiptideSpec) error {
	if err := needMap(n, "riptide"); err != nil {
		return err
	}
	if err := checkKeys(n, "enabled", "cmax", "cmin", "alpha", "update_interval", "ttl", "prefix_bits", "guard"); err != nil {
		return err
	}
	var err error
	if v := n.Get("enabled"); v != nil {
		if r.Enabled, err = v.Bool(); err != nil {
			return err
		}
	}
	for _, kv := range []struct {
		key string
		dst *int
	}{{"cmax", &r.CMax}, {"cmin", &r.CMin}, {"prefix_bits", &r.PrefixBits}} {
		if v := n.Get(kv.key); v != nil {
			iv, err := v.Int()
			if err != nil {
				return err
			}
			if iv < 0 {
				return fmt.Errorf("line %d: %s %d must not be negative", v.Line, kv.key, iv)
			}
			*kv.dst = int(iv)
		}
	}
	if v := n.Get("alpha"); v != nil {
		if r.Alpha, err = v.Float(); err != nil {
			return err
		}
	}
	if v := n.Get("update_interval"); v != nil {
		if r.UpdateInterval, err = v.Duration(); err != nil {
			return err
		}
	}
	if v := n.Get("ttl"); v != nil {
		if r.TTL, err = v.Duration(); err != nil {
			return err
		}
	}
	if v := n.Get("guard"); v != nil {
		g := &GuardSpec{}
		if err := needMap(v, "guard"); err != nil {
			return err
		}
		if err := checkKeys(v, "holdback", "min_segments", "hysteresis_ticks", "quarantine_ttl"); err != nil {
			return err
		}
		if w := v.Get("holdback"); w != nil {
			if g.Holdback, err = w.Float(); err != nil {
				return err
			}
		}
		if w := v.Get("min_segments"); w != nil {
			if g.MinSegments, err = w.Int(); err != nil {
				return err
			}
		}
		if w := v.Get("hysteresis_ticks"); w != nil {
			iv, err := w.Int()
			if err != nil {
				return err
			}
			g.HysteresisTicks = int(iv)
		}
		if w := v.Get("quarantine_ttl"); w != nil {
			if g.QuarantineTTL, err = w.Duration(); err != nil {
				return err
			}
		}
		if !r.Enabled {
			return fmt.Errorf("line %d: guard needs riptide enabled", v.Line)
		}
		r.Guard = g
	}
	return nil
}

func parseTraffic(n *Node, t *TrafficSpec) error {
	if err := needMap(n, "traffic"); err != nil {
		return err
	}
	if err := checkKeys(n, "probe_interval", "probe_sizes_kb", "close_after_transfer_prob", "idle_timeout", "organic", "organic_size_kb"); err != nil {
		return err
	}
	var err error
	if v := n.Get("probe_interval"); v != nil {
		if t.ProbeInterval, err = v.Duration(); err != nil {
			return err
		}
		if t.ProbeInterval <= 0 {
			return fmt.Errorf("line %d: probe_interval %v must be positive", v.Line, t.ProbeInterval)
		}
	}
	if v := n.Get("probe_sizes_kb"); v != nil {
		if v.Kind != SeqNode {
			return fmt.Errorf("line %d: probe_sizes_kb must be a sequence", v.Line)
		}
		for _, it := range v.Items {
			iv, err := it.Int()
			if err != nil {
				return err
			}
			if iv < 1 {
				return fmt.Errorf("line %d: probe size %d KB must be >= 1", it.Line, iv)
			}
			t.ProbeSizesKB = append(t.ProbeSizesKB, int(iv))
		}
	}
	if v := n.Get("close_after_transfer_prob"); v != nil {
		if t.CloseAfterTransferProb, err = v.Float(); err != nil {
			return err
		}
		if t.CloseAfterTransferProb < 0 || t.CloseAfterTransferProb > 1 {
			return fmt.Errorf("line %d: close_after_transfer_prob %v out of [0,1]", v.Line, t.CloseAfterTransferProb)
		}
	}
	if v := n.Get("idle_timeout"); v != nil {
		if t.IdleTimeout, err = v.Duration(); err != nil {
			return err
		}
		if t.IdleTimeout <= 0 {
			return fmt.Errorf("line %d: idle_timeout %v must be positive", v.Line, t.IdleTimeout)
		}
	}
	if v := n.Get("organic"); v != nil {
		if err := needMap(v, "organic"); err != nil {
			return err
		}
		for i, pop := range v.Keys {
			rate, err := v.Vals[i].Float()
			if err != nil {
				return err
			}
			if rate <= 0 {
				return fmt.Errorf("line %d: organic rate %v for %q must be positive", v.KeyLines[i], rate, pop)
			}
			t.Organic = append(t.Organic, OrganicRate{PoP: pop, Rate: rate})
		}
	}
	if v := n.Get("organic_size_kb"); v != nil {
		if t.OrganicSizeKB, err = v.Float(); err != nil {
			return err
		}
		if t.OrganicSizeKB <= 0 {
			return fmt.Errorf("line %d: organic_size_kb %v must be positive", v.Line, t.OrganicSizeKB)
		}
	}
	return nil
}

func parseWindow(n *Node, total time.Duration) (*Window, error) {
	if err := needMap(n, "window"); err != nil {
		return nil, err
	}
	if err := checkKeys(n, "start", "end"); err != nil {
		return nil, err
	}
	w := &Window{}
	var err error
	startNode, endNode := n.Get("start"), n.Get("end")
	if startNode == nil || endNode == nil {
		return nil, fmt.Errorf("line %d: window needs start and end", n.Line)
	}
	if w.Start, err = startNode.Duration(); err != nil {
		return nil, err
	}
	if w.End, err = endNode.Duration(); err != nil {
		return nil, err
	}
	if w.Start < 0 || w.End <= w.Start || w.End > total {
		return nil, fmt.Errorf("line %d: window [%v, %v) must satisfy 0 <= start < end <= duration", n.Line, w.Start, w.End)
	}
	return w, nil
}

func parseCompare(n *Node) (*CompareSpec, error) {
	if err := needMap(n, "compare"); err != nil {
		return nil, err
	}
	if err := checkKeys(n, "riptide", "guard", "gossip", "sharing"); err != nil {
		return nil, err
	}
	c := &CompareSpec{}
	for _, kv := range []struct {
		key string
		dst **bool
	}{{"riptide", &c.Riptide}, {"guard", &c.Guard}, {"gossip", &c.Gossip}, {"sharing", &c.Sharing}} {
		if v := n.Get(kv.key); v != nil {
			b, err := v.Bool()
			if err != nil {
				return nil, err
			}
			*kv.dst = &b
		}
	}
	if len(n.Keys) == 0 {
		return nil, fmt.Errorf("line %d: compare block sets no knob (valid: gossip guard riptide sharing)", n.Line)
	}
	return c, nil
}

func parseProbeFilter(n *Node, f *ProbeFilter) error {
	if err := needMap(n, "probe_filter"); err != nil {
		return err
	}
	if err := checkKeys(n, "size_kb", "fresh_only"); err != nil {
		return err
	}
	var err error
	if v := n.Get("size_kb"); v != nil {
		iv, err := v.Int()
		if err != nil {
			return err
		}
		if iv < 0 {
			return fmt.Errorf("line %d: size_kb %d must not be negative", v.Line, iv)
		}
		f.SizeKB = int(iv)
	}
	if v := n.Get("fresh_only"); v != nil {
		if f.FreshOnly, err = v.Bool(); err != nil {
			return err
		}
	}
	return nil
}
