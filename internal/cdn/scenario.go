package cdn

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"riptide/internal/kernel"
	"riptide/internal/netsim"
)

// This file provides the fault and traffic events the scenario engine
// (internal/scenario) layers onto a Cluster — the incidents the paper's
// Section II motivates: load shifts, path congestion, and state-destroying
// maintenance. Each fault type is plain data plus two methods: Validate checks
// the parameters that need no cluster, Apply re-checks them, resolves the PoP
// names and schedules the fault's events. Callers then drive Cluster.Run.

// SetPoPPathLoss sets the random loss rate on every path into and out of
// the named PoP, the blast radius of a regional network degradation.
func (c *Cluster) SetPoPPathLoss(name string, lossRate float64) error {
	hs, ok := c.hosts[name]
	if !ok {
		return fmt.Errorf("cdn: unknown PoP %q", name)
	}
	for _, other := range c.pops {
		if other.Name == name {
			continue
		}
		for _, h := range hs {
			for _, oh := range c.hosts[other.Name] {
				if err := c.net.SetPathLoss(h.Addr(), oh.Addr(), lossRate); err != nil {
					return err
				}
				if err := c.net.SetPathLoss(oh.Addr(), h.Addr(), lossRate); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// SetPoPPathCapacity sets the bottleneck capacity (segments per RTT, 0 =
// unlimited) on every path into and out of the named PoP — a capacity cut
// with site-wide blast radius, such as a backbone failure at the site's edge.
func (c *Cluster) SetPoPPathCapacity(name string, segments int) error {
	hs, ok := c.hosts[name]
	if !ok {
		return fmt.Errorf("cdn: unknown PoP %q", name)
	}
	for _, other := range c.pops {
		if other.Name == name {
			continue
		}
		for _, h := range hs {
			for _, oh := range c.hosts[other.Name] {
				if err := c.net.SetPathCapacity(h.Addr(), oh.Addr(), segments); err != nil {
					return err
				}
				if err := c.net.SetPathCapacity(oh.Addr(), h.Addr(), segments); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// pairHosts resolves two distinct PoPs to their machine lists.
func (c *Cluster) pairHosts(a, b string) (ha, hb []*kernel.Host, err error) {
	ha, ok := c.hosts[a]
	if !ok {
		return nil, nil, fmt.Errorf("cdn: unknown PoP %q", a)
	}
	hb, ok = c.hosts[b]
	if !ok {
		return nil, nil, fmt.Errorf("cdn: unknown PoP %q", b)
	}
	if a == b {
		return nil, nil, fmt.Errorf("cdn: PoP pair needs two distinct PoPs, got %q twice", a)
	}
	return ha, hb, nil
}

// SetPoPPairCapacity sets the bottleneck capacity on every path between two
// PoPs, in both directions — a cut confined to one inter-site link.
func (c *Cluster) SetPoPPairCapacity(a, b string, segments int) error {
	ha, hb, err := c.pairHosts(a, b)
	if err != nil {
		return err
	}
	for _, x := range ha {
		for _, y := range hb {
			if err := c.net.SetPathCapacity(x.Addr(), y.Addr(), segments); err != nil {
				return err
			}
			if err := c.net.SetPathCapacity(y.Addr(), x.Addr(), segments); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetPoPPairRTT sets the round-trip time on every path between two PoPs, in
// both directions — a route flap onto a longer (or shorter) backbone path.
func (c *Cluster) SetPoPPairRTT(a, b string, rtt time.Duration) error {
	ha, hb, err := c.pairHosts(a, b)
	if err != nil {
		return err
	}
	for _, x := range ha {
		for _, y := range hb {
			if err := c.net.SetPathRTT(x.Addr(), y.Addr(), rtt); err != nil {
				return err
			}
			if err := c.net.SetPathRTT(y.Addr(), x.Addr(), rtt); err != nil {
				return err
			}
		}
	}
	return nil
}

// BaselinePairRTT returns the topology-derived RTT between two PoPs — the
// value paths between them were built with, and the one flaps restore.
func (c *Cluster) BaselinePairRTT(a, b string) (time.Duration, error) {
	pa, ok := c.byName[a]
	if !ok {
		return 0, fmt.Errorf("cdn: unknown PoP %q", a)
	}
	pb, ok := c.byName[b]
	if !ok {
		return 0, fmt.Errorf("cdn: unknown PoP %q", b)
	}
	return RTTBetween(pa, pb), nil
}

// PartitionPoPs blocks (or unblocks) every path between two PoPs. Blocking
// also force-closes the connections currently crossing the partition, like a
// real split kills established flows; it returns how many closed.
func (c *Cluster) PartitionPoPs(a, b string, blocked bool) (int, error) {
	ha, hb, err := c.pairHosts(a, b)
	if err != nil {
		return 0, err
	}
	closed := 0
	for _, x := range ha {
		for _, y := range hb {
			if err := c.net.SetPathBlocked(x.Addr(), y.Addr(), blocked); err != nil {
				return closed, err
			}
			if err := c.net.SetPathBlocked(y.Addr(), x.Addr(), blocked); err != nil {
				return closed, err
			}
			if blocked {
				closed += c.net.CloseConnsBetween(x.Addr(), y.Addr())
			}
		}
	}
	return closed, nil
}

// InjectTransfer sends one application transfer between PoPs through the
// cluster's connection pools, exactly like organic traffic. done may be nil.
func (c *Cluster) InjectTransfer(srcPoP, dstPoP string, bytes int64, done func(netsim.TransferResult)) error {
	src, ok := c.byName[srcPoP]
	if !ok {
		return fmt.Errorf("cdn: unknown PoP %q", srcPoP)
	}
	dst, ok := c.byName[dstPoP]
	if !ok {
		return fmt.Errorf("cdn: unknown PoP %q", dstPoP)
	}
	if src.Name == dst.Name {
		return fmt.Errorf("cdn: transfer within PoP %q", srcPoP)
	}
	srcHost := c.pickHost(src.Name)
	dstHost := c.pickHost(dst.Name)
	conn, _, err := c.grabConn(srcHost.Addr(), dstHost.Addr())
	if err != nil {
		return err
	}
	err = conn.Transfer(bytes, func(r netsim.TransferResult) {
		if done != nil {
			done(r)
		}
		c.releaseConn(conn)
	})
	if err != nil {
		conn.Close()
		return err
	}
	return nil
}

// ScheduleAt runs fn at the given offset from the current simulated time.
func (c *Cluster) ScheduleAt(after time.Duration, fn func()) error {
	_, err := c.engine.Schedule(after, fn)
	return err
}

// checkPoP rejects a PoP name the cluster does not have; what names the fault
// for the error.
func (c *Cluster) checkPoP(what, name string) error {
	if _, ok := c.byName[name]; !ok {
		return fmt.Errorf("cdn: %s PoP %q unknown", what, name)
	}
	return nil
}

// FlashCrowd models a sudden burst of extra transfers from every PoP toward
// one target PoP — a viral object or a failed-over tenant.
type FlashCrowd struct {
	// Target is the PoP absorbing the crowd.
	Target string
	// At is when the crowd arrives; For is how long it lasts.
	At, For time.Duration
	// RatePerPoP is extra transfers per second from each other PoP.
	RatePerPoP float64
	// SizeBytes is the object size fetched; defaults to 100 KB.
	SizeBytes int64
}

// Validate checks the crowd's parameters.
func (f FlashCrowd) Validate() error {
	if f.RatePerPoP <= 0 || f.For <= 0 {
		return fmt.Errorf("cdn: flash crowd needs positive rate and duration")
	}
	if f.At < 0 {
		return fmt.Errorf("cdn: flash crowd start %v must not be negative", f.At)
	}
	if f.SizeBytes < 0 {
		return fmt.Errorf("cdn: flash crowd size %d bytes must not be negative", f.SizeBytes)
	}
	return nil
}

// Apply schedules the crowd's transfers onto the cluster.
func (f FlashCrowd) Apply(c *Cluster) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if err := c.checkPoP("flash crowd target", f.Target); err != nil {
		return err
	}
	size := f.SizeBytes
	if size == 0 {
		size = 100 * 1024
	}
	// Fixed-interval injections approximate the burst deterministically.
	gap := time.Duration(float64(time.Second) / f.RatePerPoP)
	for _, src := range c.pops {
		if src.Name == f.Target {
			continue
		}
		srcName := src.Name
		for off := f.At; off < f.At+f.For; off += gap {
			if err := c.ScheduleAt(off, func() {
				// Fetch FROM the target: the crowd pulls the
				// object, so the hot data flows target -> edge.
				_ = c.InjectTransfer(f.Target, srcName, size, nil)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// ShiftWarning is a load balancer's notice that traffic is about to shift
// onto one PoP (the paper's Section V advisor): at At, every agent of the
// listed PoPs damps its windows toward the machines of To by Factor,
// through its core.LoadBalanceAdvisor. The listed PoPs must be in
// RiptideOptions.Advised; in a fleet without agents the warning does
// nothing.
type ShiftWarning struct {
	// PoPs are the warned PoPs, whose agents damp.
	PoPs []string
	// To is the PoP about to absorb the shifted traffic.
	To string
	// At is when the warning arrives.
	At time.Duration
	// Factor multiplies the learned windows toward To, in (0, 1].
	Factor float64
}

// Validate checks the warning's parameters.
func (w ShiftWarning) Validate() error {
	if len(w.PoPs) == 0 {
		return fmt.Errorf("cdn: shift warning names no PoP to warn")
	}
	if slices.Contains(w.PoPs, w.To) {
		return fmt.Errorf("cdn: shift warning warns %q about itself", w.To)
	}
	if w.At < 0 {
		return fmt.Errorf("cdn: shift warning time %v must not be negative", w.At)
	}
	if !(w.Factor > 0 && w.Factor <= 1) {
		return fmt.Errorf("cdn: shift warning factor %v out of (0,1]", w.Factor)
	}
	return nil
}

// Apply schedules the warning: each warned agent's advisor expects the shift
// onto To's /24, the prefix every machine of To is addressed in.
func (w ShiftWarning) Apply(c *Cluster) error {
	if err := w.Validate(); err != nil {
		return err
	}
	to, ok := c.byName[w.To]
	if !ok {
		return fmt.Errorf("cdn: shift warning PoP %q unknown", w.To)
	}
	for _, name := range w.PoPs {
		if err := c.checkPoP("shift warning", name); err != nil {
			return err
		}
		if c.cfg.Riptide.Enabled && !slices.Contains(c.cfg.Riptide.Advised, name) {
			return fmt.Errorf("cdn: shift warning PoP %q is not advised", name)
		}
	}
	dst := netip.PrefixFrom(to.Addr, 24).Masked()
	return c.ScheduleAt(w.At, func() {
		for _, name := range w.PoPs {
			for _, h := range c.hosts[name] {
				if slot, ok := c.agents[h.Addr()]; ok {
					// Validate checked the factor, ExpectShift's only failure.
					_ = slot.advisor.ExpectShift(dst, w.Factor)
				}
			}
		}
	})
}

// RegionalDegradation raises loss on every path touching one PoP for a
// window, then restores the baseline.
type RegionalDegradation struct {
	// PoP is the degraded site.
	PoP string
	// At / For bound the episode.
	At, For time.Duration
	// LossRate is the degraded per-segment loss.
	LossRate float64
	// BaselineLoss is restored afterwards (the cluster's configured WAN
	// loss rate).
	BaselineLoss float64
}

// Validate checks the episode's parameters.
func (d RegionalDegradation) Validate() error {
	if d.For <= 0 || d.LossRate <= 0 || d.LossRate >= 1 {
		return fmt.Errorf("cdn: degradation needs positive duration and loss in (0,1)")
	}
	return nil
}

// Apply schedules the loss increase and its restoration.
func (d RegionalDegradation) Apply(c *Cluster) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if err := c.checkPoP("degradation", d.PoP); err != nil {
		return err
	}
	if err := c.ScheduleAt(d.At, func() {
		_ = c.SetPoPPathLoss(d.PoP, d.LossRate)
	}); err != nil {
		return err
	}
	return c.ScheduleAt(d.At+d.For, func() {
		_ = c.SetPoPPathLoss(d.PoP, d.BaselineLoss)
	})
}

// RollingReboots reboots a list of PoPs one after another — a maintenance
// wave, the paper's Section II-A state-loss event at fleet scale.
type RollingReboots struct {
	// PoPs reboot in order.
	PoPs []string
	// Start is the first reboot; Interval separates subsequent ones.
	Start, Interval time.Duration
}

// Validate checks the wave's parameters.
func (r RollingReboots) Validate() error {
	if len(r.PoPs) == 0 {
		return fmt.Errorf("cdn: rolling reboots needs at least one PoP")
	}
	if r.Interval <= 0 {
		return fmt.Errorf("cdn: rolling reboots needs a positive interval")
	}
	return nil
}

// Apply schedules one RebootPoP per listed PoP.
func (r RollingReboots) Apply(c *Cluster) error {
	if err := r.Validate(); err != nil {
		return err
	}
	for i, name := range r.PoPs {
		if err := c.checkPoP("reboot", name); err != nil {
			return err
		}
		name := name
		if err := c.ScheduleAt(r.Start+time.Duration(i)*r.Interval, func() {
			_, _ = c.RebootPoP(name)
		}); err != nil {
			return err
		}
	}
	return nil
}

// CapacityCut collapses the bottleneck capacity of the WAN paths touching
// one PoP — the mid-run event the safety governor exists for. With From set
// the cut is confined to the From<->PoP pair; otherwise every path in and out
// of the PoP shrinks. A zero For makes the cut permanent.
type CapacityCut struct {
	// PoP is the site whose paths are cut.
	PoP string
	// From, when non-empty, restricts the cut to the From<->PoP pair.
	From string
	// At is when capacity collapses; For is how long (0 = permanent).
	At, For time.Duration
	// Segments is the post-cut capacity (segments per RTT, >= 1).
	Segments int
	// RestoreSegments is reinstated at At+For when For > 0 (0 = unlimited).
	RestoreSegments int
}

func (cc CapacityCut) set(c *Cluster, segments int) error {
	if cc.From != "" {
		return c.SetPoPPairCapacity(cc.From, cc.PoP, segments)
	}
	return c.SetPoPPathCapacity(cc.PoP, segments)
}

// Validate checks the cut's parameters.
func (cc CapacityCut) Validate() error {
	if cc.From == cc.PoP {
		return fmt.Errorf("cdn: capacity cut pop and from must differ, got %q twice", cc.PoP)
	}
	if cc.At < 0 || cc.For < 0 {
		return fmt.Errorf("cdn: capacity cut times must not be negative")
	}
	if cc.Segments < 1 {
		return fmt.Errorf("cdn: capacity cut to %d segments/RTT must be >= 1", cc.Segments)
	}
	if cc.RestoreSegments < 0 {
		return fmt.Errorf("cdn: capacity restore %d segments/RTT must be >= 0", cc.RestoreSegments)
	}
	return nil
}

// Apply schedules the cut and, when For > 0, the restoration.
func (cc CapacityCut) Apply(c *Cluster) error {
	if err := cc.Validate(); err != nil {
		return err
	}
	if err := c.checkPoP("capacity cut", cc.PoP); err != nil {
		return err
	}
	if cc.From != "" {
		if err := c.checkPoP("capacity cut", cc.From); err != nil {
			return err
		}
	}
	if err := c.ScheduleAt(cc.At, func() {
		_ = cc.set(c, cc.Segments)
	}); err != nil {
		return err
	}
	if cc.For == 0 {
		return nil
	}
	return c.ScheduleAt(cc.At+cc.For, func() {
		_ = cc.set(c, cc.RestoreSegments)
	})
}

// PathFlap models a route change between two PoPs: for a window, the paths
// between them run at a multiple of their topology RTT (traffic detoured onto
// a longer backbone route), then snap back.
type PathFlap struct {
	// A and B are the PoPs whose interconnect flaps.
	A, B string
	// At / For bound the episode.
	At, For time.Duration
	// RTTScale multiplies the pair's baseline RTT during the window
	// (e.g. 2.0 = detour twice as long). Must be positive.
	RTTScale float64
}

// Validate checks the flap's parameters.
func (f PathFlap) Validate() error {
	if f.A == f.B {
		return fmt.Errorf("cdn: path flap a and b must differ, got %q twice", f.A)
	}
	if f.At < 0 || f.For <= 0 {
		return fmt.Errorf("cdn: path flap needs a non-negative start and positive duration")
	}
	if f.RTTScale <= 0 {
		return fmt.Errorf("cdn: path flap RTT scale %v must be positive", f.RTTScale)
	}
	return nil
}

// Apply schedules the detour and the snap back.
func (f PathFlap) Apply(c *Cluster) error {
	if err := f.Validate(); err != nil {
		return err
	}
	base, err := c.BaselinePairRTT(f.A, f.B)
	if err != nil {
		return err
	}
	flapped := time.Duration(float64(base) * f.RTTScale)
	if flapped <= 0 {
		return fmt.Errorf("cdn: path flap RTT scale %v underflows the %v baseline", f.RTTScale, base)
	}
	if err := c.ScheduleAt(f.At, func() {
		_ = c.SetPoPPairRTT(f.A, f.B, flapped)
	}); err != nil {
		return err
	}
	return c.ScheduleAt(f.At+f.For, func() {
		_ = c.SetPoPPairRTT(f.A, f.B, base)
	})
}

// PeerPartition severs connectivity between two PoPs for a window: existing
// connections between them die, new opens fail, and traffic resumes when the
// partition heals.
type PeerPartition struct {
	// A and B are the partitioned PoPs.
	A, B string
	// At / For bound the partition.
	At, For time.Duration
}

// Validate checks the partition's parameters.
func (p PeerPartition) Validate() error {
	if p.A == p.B {
		return fmt.Errorf("cdn: peer partition a and b must differ, got %q twice", p.A)
	}
	if p.At < 0 || p.For <= 0 {
		return fmt.Errorf("cdn: peer partition needs a non-negative start and positive duration")
	}
	return nil
}

// Apply schedules the split and the heal.
func (p PeerPartition) Apply(c *Cluster) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, _, err := c.pairHosts(p.A, p.B); err != nil {
		return err
	}
	if err := c.ScheduleAt(p.At, func() {
		_, _ = c.PartitionPoPs(p.A, p.B, true)
	}); err != nil {
		return err
	}
	return c.ScheduleAt(p.At+p.For, func() {
		_, _ = c.PartitionPoPs(p.A, p.B, false)
	})
}
