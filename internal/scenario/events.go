package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"riptide/internal/cdn"
	"riptide/internal/core"
)

// eventKinds names every supported event, for error messages.
var eventKinds = []string{
	"capacity_cut", "degradation", "enable_gossip_sharing", "expect_shift",
	"flash_crowd", "host_reboot", "path_flap", "peer_partition", "rolling_reboots",
	"set_knob", "start_cwnd_sampling",
}

// parseEvents decodes and validates the event stream. Events must be listed
// in non-decreasing At order so the file reads like the incident timeline it
// is. baseLoss is the fleet's WAN loss rate, which a degradation restores.
func parseEvents(n *Node, pops map[string]bool, total time.Duration, baseLoss float64) ([]Event, error) {
	if n.Kind != SeqNode {
		return nil, fmt.Errorf("line %d: events must be a sequence", n.Line)
	}
	var out []Event
	sampling := false
	for _, item := range n.Items {
		ev, err := parseEvent(item, pops, total, baseLoss)
		if err != nil {
			return nil, err
		}
		if len(out) > 0 && ev.At < out[len(out)-1].At {
			return nil, fmt.Errorf("line %d: event at %v listed after one at %v (events must be in time order)",
				ev.Line, ev.At, out[len(out)-1].At)
		}
		if _, ok := ev.Payload.(*CwndSamplingEvent); ok {
			if sampling {
				return nil, fmt.Errorf("line %d: start_cwnd_sampling listed twice (one sampler per run)", ev.Line)
			}
			sampling = true
		}
		out = append(out, ev)
	}
	return out, nil
}

func parseEvent(n *Node, pops map[string]bool, total time.Duration, baseLoss float64) (Event, error) {
	var ev Event
	if err := needMap(n, "event"); err != nil {
		return ev, err
	}
	ev.Line = n.Line
	atNode := n.Get("at")
	if atNode == nil {
		return ev, fmt.Errorf("line %d: event needs an at time", n.Line)
	}
	at, err := atNode.Duration()
	if err != nil {
		return ev, err
	}
	if at < 0 || at >= total {
		return ev, fmt.Errorf("line %d: event at %v outside the run [0, %v)", atNode.Line, at, total)
	}
	ev.At = at
	for i, key := range n.Keys {
		if key == "at" {
			continue
		}
		if ev.Payload != nil {
			return ev, fmt.Errorf("line %d: event has two kinds (%q and %q); one per entry", n.KeyLines[i], ev.Kind, key)
		}
		payload, err := parsePayload(key, n.Vals[i], at, baseLoss)
		if err != nil {
			return ev, err
		}
		ev.Kind = key
		ev.Payload = payload
	}
	if ev.Payload == nil {
		return ev, fmt.Errorf("line %d: event needs a kind (valid: %s)", n.Line, strings.Join(eventKinds, " "))
	}
	if err := ev.validate(pops, total); err != nil {
		return ev, fmt.Errorf("line %d: %s: %w", ev.Line, ev.Kind, err)
	}
	return ev, nil
}

// field binds one key of a mapping to where its value is stored: a *string,
// *[]string, *time.Duration, *bool, *int, *int64 or *float64, a
// *core.Combiner that the value names, or a **Node that keeps a nested block
// for its own decoder.
type field struct {
	key string
	dst any
}

// decodeFields checks that n is a mapping holding only the listed keys and
// stores every value present. Range checks are the caller's, after decoding.
func decodeFields(n *Node, kind string, fields ...field) error {
	if err := needMap(n, kind); err != nil {
		return err
	}
	keys := make([]string, len(fields))
	for i, f := range fields {
		keys[i] = f.key
	}
	if err := checkKeys(n, keys...); err != nil {
		return err
	}
	for _, f := range fields {
		v := n.Get(f.key)
		if v == nil {
			continue
		}
		var err error
		switch dst := f.dst.(type) {
		case *string:
			*dst, err = v.Str()
		case *[]string:
			*dst, err = v.StrSeq()
		case *time.Duration:
			*dst, err = v.Duration()
		case *float64:
			*dst, err = v.Float()
		case *bool:
			*dst, err = v.Bool()
		case *int:
			var iv int64
			iv, err = v.Int()
			*dst = int(iv)
		case *int64:
			*dst, err = v.Int()
		case *core.Combiner:
			var name string
			if name, err = v.Str(); err != nil {
				break
			}
			c, ok := core.CombinerByName(name)
			if !ok {
				err = fmt.Errorf("line %d: %s %q unknown (valid: average max traffic-weighted)", v.Line, f.key, name)
			}
			*dst = c
		case **Node:
			*dst = v
		default:
			panic(fmt.Sprintf("scenario: field %q has unsupported type %T", f.key, f.dst))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// parsePayload decodes one event body. The cdn fault types are filled in
// directly, with the event's fire time as their At.
func parsePayload(kind string, n *Node, at time.Duration, baseLoss float64) (any, error) {
	switch kind {
	case "capacity_cut":
		e := &cdn.CapacityCut{At: at}
		return e, decodeFields(n, kind, field{"pop", &e.PoP}, field{"from", &e.From}, field{"for", &e.For},
			field{"segments", &e.Segments}, field{"restore_segments", &e.RestoreSegments})
	case "host_reboot":
		e := &HostRebootEvent{}
		return e, decodeFields(n, kind, field{"pop", &e.PoP}, field{"host", &e.Host}, field{"for", &e.For},
			field{"track_recovery", &e.TrackRecovery})
	case "rolling_reboots":
		e := &RollingRebootsEvent{RollingReboots: cdn.RollingReboots{Start: at}}
		return e, decodeFields(n, kind, field{"pops", &e.PoPs}, field{"interval", &e.Interval},
			field{"track_recovery", &e.TrackRecovery})
	case "flash_crowd":
		e := &cdn.FlashCrowd{At: at}
		var sizeKB int
		err := decodeFields(n, kind, field{"target", &e.Target}, field{"for", &e.For},
			field{"rate_per_pop", &e.RatePerPoP}, field{"size_kb", &sizeKB})
		e.SizeBytes = int64(sizeKB) * 1024
		return e, err
	case "path_flap":
		e := &cdn.PathFlap{At: at}
		return e, decodeFields(n, kind, field{"a", &e.A}, field{"b", &e.B}, field{"for", &e.For},
			field{"rtt_scale", &e.RTTScale})
	case "peer_partition":
		e := &cdn.PeerPartition{At: at}
		return e, decodeFields(n, kind, field{"a", &e.A}, field{"b", &e.B}, field{"for", &e.For})
	case "degradation":
		e := &cdn.RegionalDegradation{At: at, BaselineLoss: baseLoss}
		return e, decodeFields(n, kind, field{"pop", &e.PoP}, field{"for", &e.For}, field{"loss_rate", &e.LossRate})
	case "enable_gossip_sharing":
		e := &GossipSharingEvent{Mode: string(cdn.GossipLadder), Peers: string(cdn.GossipPeersAll)}
		return e, decodeFields(n, kind, field{"interval", &e.Interval}, field{"mode", &e.Mode},
			field{"peers", &e.Peers}, field{"seed_entries", &e.SeedEntries})
	case "expect_shift":
		e := &cdn.ShiftWarning{At: at}
		return e, decodeFields(n, kind, field{"pops", &e.PoPs}, field{"to", &e.To}, field{"factor", &e.Factor})
	case "start_cwnd_sampling":
		e := &CwndSamplingEvent{}
		return e, decodeFields(n, kind, field{"pops", &e.PoPs})
	case "set_knob":
		e := &KnobEvent{}
		return e, decodeFields(n, kind, field{"knob", &e.Knob}, field{"pop", &e.PoP}, field{"a", &e.A},
			field{"b", &e.B}, field{"value", &e.Value})
	}
	return nil, fmt.Errorf("line %d: unknown event kind %q (valid: %s)", n.Line, kind, strings.Join(eventKinds, " "))
}

// validate checks the event's semantics: its own parameters, that every PoP
// it names is in the fleet, and that its disruption ends inside the run.
func (ev Event) validate(pops map[string]bool, total time.Duration) error {
	var err error
	switch p := ev.Payload.(type) {
	case *HostRebootEvent:
		switch {
		case p.Host < 0:
			err = fmt.Errorf("host index %d must not be negative", p.Host)
		case p.For < 0:
			err = fmt.Errorf("for %v must not be negative", p.For)
		default:
			err = checkFraction(p.TrackRecovery)
		}
	case *RollingRebootsEvent:
		if err = p.RollingReboots.Validate(); err == nil {
			err = checkFraction(p.TrackRecovery)
		}
	case *GossipSharingEvent:
		err = checkSharing(p.Interval, ev.At)
		if m := cdn.GossipMode(p.Mode); err == nil && m != cdn.GossipLadder && m != cdn.GossipFull {
			err = fmt.Errorf("mode %q unknown (valid: %s %s)", p.Mode, cdn.GossipFull, cdn.GossipLadder)
		}
		if ps := cdn.GossipPeers(p.Peers); err == nil && ps != cdn.GossipPeersAll && ps != cdn.GossipPeersPoP {
			err = fmt.Errorf("peers %q unknown (valid: %s %s)", p.Peers, cdn.GossipPeersAll, cdn.GossipPeersPoP)
		}
		if err == nil && p.SeedEntries < 0 {
			err = fmt.Errorf("seed_entries %d must not be negative", p.SeedEntries)
		}
	case *KnobEvent:
		err = p.validate()
	case *CwndSamplingEvent:
		for _, name := range p.PoPs {
			if !pops[name] && err == nil {
				err = fmt.Errorf("unknown PoP %q", name)
			}
		}
	case *cdn.ShiftWarning:
		if err = p.Validate(); err == nil {
			for _, name := range append([]string{p.To}, p.PoPs...) {
				if !pops[name] && err == nil {
					err = fmt.Errorf("unknown PoP %q", name)
				}
			}
		}
	case interface{ Validate() error }: // the cdn fault types
		err = p.Validate()
	}
	if err != nil {
		return err
	}
	for _, name := range ev.affected() {
		if !pops[name] {
			names := make([]string, 0, len(pops))
			for p := range pops {
				names = append(names, p)
			}
			sort.Strings(names)
			return fmt.Errorf("unknown PoP %q (fleet: %s)", name, strings.Join(names, " "))
		}
	}
	if _, end := ev.window(total); end > total {
		return fmt.Errorf("disruption lasts until %v, past the run end %v", end, total)
	}
	return nil
}

func checkFraction(track float64) error {
	if track < 0 || track > 1 {
		return fmt.Errorf("track_recovery %v out of [0,1]", track)
	}
	return nil
}

func checkSharing(interval, at time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("interval %v must be positive", interval)
	}
	if at != 0 {
		return fmt.Errorf("must fire at 0s (sharing starts with the run)")
	}
	return nil
}

func (e *KnobEvent) validate() error {
	switch e.Knob {
	case KnobPoPLoss, KnobPoPCapacity:
		if e.A != "" || e.B != "" {
			return fmt.Errorf("knob %q takes pop, not a/b", e.Knob)
		}
	case KnobPairCapacity, KnobPairRTTMs:
		if e.A == e.B {
			return fmt.Errorf("a and b must differ, got %q twice", e.A)
		}
		if e.PoP != "" {
			return fmt.Errorf("knob %q takes a/b, not pop", e.Knob)
		}
	default:
		return fmt.Errorf("unknown knob %q (valid: %s %s %s %s)",
			e.Knob, KnobPairCapacity, KnobPairRTTMs, KnobPoPCapacity, KnobPoPLoss)
	}
	switch e.Knob {
	case KnobPoPLoss:
		if e.Value < 0 || e.Value >= 1 {
			return fmt.Errorf("value %v out of [0,1)", e.Value)
		}
	case KnobPoPCapacity, KnobPairCapacity:
		if e.Value < 0 || e.Value != float64(int(e.Value)) {
			return fmt.Errorf("value %v must be a non-negative integer segment count", e.Value)
		}
	case KnobPairRTTMs:
		if e.Value <= 0 {
			return fmt.Errorf("value %v must be a positive RTT in milliseconds", e.Value)
		}
	}
	return nil
}

// window reports the disruption window the event contributes to the
// "during" phase ([0,0) = none; sharing and raw knobs imply no window). A
// cut or reboot with no length lasts for the rest of the run; the other
// kinds' Validate rejects a zero length.
func (ev Event) window(total time.Duration) (start, end time.Duration) {
	var length time.Duration
	switch p := ev.Payload.(type) {
	case *cdn.CapacityCut:
		length = p.For
	case *HostRebootEvent:
		length = p.For
	case *RollingRebootsEvent:
		length = time.Duration(len(p.PoPs)) * p.Interval
	case *cdn.FlashCrowd:
		length = p.For
	case *cdn.PathFlap:
		length = p.For
	case *cdn.PeerPartition:
		length = p.For
	case *cdn.RegionalDegradation:
		length = p.For
	default:
		return 0, 0
	}
	if length == 0 {
		return ev.At, total
	}
	return ev.At, ev.At + length
}

// affected names the PoPs the event touches — its blast radius, which the
// phase CDFs are filtered to.
func (ev Event) affected() []string {
	switch p := ev.Payload.(type) {
	case *cdn.CapacityCut:
		if p.From != "" {
			return []string{p.PoP, p.From}
		}
		return []string{p.PoP}
	case *HostRebootEvent:
		return []string{p.PoP}
	case *RollingRebootsEvent:
		return p.PoPs
	case *cdn.FlashCrowd:
		return []string{p.Target}
	case *cdn.PathFlap:
		return []string{p.A, p.B}
	case *cdn.PeerPartition:
		return []string{p.A, p.B}
	case *cdn.RegionalDegradation:
		return []string{p.PoP}
	case *KnobEvent:
		if p.PoP != "" {
			return []string{p.PoP}
		}
		return []string{p.A, p.B}
	}
	return nil
}
