package core

import (
	"fmt"
	"math"
	"net/netip"
	"sync"
)

// This file implements the extension points sketched in the paper's
// Discussion section ("Additional Algorithms", Section V):
//
//   - Advisor: "if a cloud system were able to provide it with higher level
//     information (e.g., the need to perform immediate load balancing), it
//     could be used to set more conservative congestion windows to avoid
//     sudden crowding."
//   - TrendHistory: "a significant decrease in congestion window over a
//     short time may indicate the need to aggressively decrease the initial
//     windows, beyond what is happening to existing connections."

// Advisor supplies a system-level damping factor for a destination's
// programmed window. Implementations must be safe for concurrent use.
type Advisor interface {
	// Advise returns a multiplier in (0, 1] applied to the clamped window,
	// which is then clamped again. Returning 1 means no adjustment.
	Advise(dst netip.Prefix) float64
}

// LoadBalanceAdvisor damps programmed windows for destinations that are
// about to receive shifted traffic, so the arrival of many new connections
// does not crowd the path (the paper's load-balancing example).
type LoadBalanceAdvisor struct {
	mu      sync.RWMutex
	damping map[netip.Prefix]float64
}

// NewLoadBalanceAdvisor returns an advisor with no active damping.
func NewLoadBalanceAdvisor() *LoadBalanceAdvisor {
	return &LoadBalanceAdvisor{damping: make(map[netip.Prefix]float64)}
}

// ExpectShift declares that the destination will soon absorb extra load;
// its windows are multiplied by factor (in (0, 1]) until ShiftComplete.
func (a *LoadBalanceAdvisor) ExpectShift(dst netip.Prefix, factor float64) error {
	if factor <= 0 || factor > 1 || math.IsNaN(factor) {
		return fmt.Errorf("riptide/core: damping factor %v out of (0,1]", factor)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.damping[dst.Masked()] = factor
	return nil
}

// ShiftComplete removes damping for the destination.
func (a *LoadBalanceAdvisor) ShiftComplete(dst netip.Prefix) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.damping, dst.Masked())
}

// Advise implements Advisor: the most specific active damping entry
// covering the destination wins.
func (a *LoadBalanceAdvisor) Advise(dst netip.Prefix) float64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	best := 1.0
	bestBits := -1
	for p, f := range a.damping {
		if p == dst.Masked() || (p.Bits() <= dst.Bits() && p.Contains(dst.Addr())) {
			if p.Bits() > bestBits {
				best = f
				bestBits = p.Bits()
			}
		}
	}
	return best
}

var _ Advisor = (*LoadBalanceAdvisor)(nil)

// TrendCollapse is the collapse fraction of the trend policy a scenario
// file names (HistoryByName): any halving of the observed windows snaps.
const TrendCollapse = 0.5

// TrendHistory wraps an EWMA with collapse detection: when the combined
// observation falls below CollapseFraction of the running average, the
// history snaps down to the new value immediately instead of gliding — the
// paper's "aggressively decrease the initial windows" variant. Recoveries
// still smooth through the EWMA, keeping the asymmetry conservative.
type TrendHistory struct {
	alpha            float64
	collapseFraction float64
	state            map[netip.Prefix]float64
	collapses        uint64
}

// NewTrendHistory builds a TrendHistory. alpha is the EWMA history weight;
// collapseFraction (in (0,1)) is the drop threshold that triggers a snap,
// e.g. 0.5 reacts to any halving of the observed windows.
func NewTrendHistory(alpha, collapseFraction float64) (*TrendHistory, error) {
	if alpha < 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("riptide/core: alpha %v out of range [0,1]", alpha)
	}
	if collapseFraction <= 0 || collapseFraction >= 1 || math.IsNaN(collapseFraction) {
		return nil, fmt.Errorf("riptide/core: collapse fraction %v out of (0,1)", collapseFraction)
	}
	return &TrendHistory{
		alpha:            alpha,
		collapseFraction: collapseFraction,
		state:            make(map[netip.Prefix]float64),
	}, nil
}

// Name implements HistoryPolicy.
func (h *TrendHistory) Name() string { return "trend" }

// Update implements HistoryPolicy.
func (h *TrendHistory) Update(dst netip.Prefix, value float64) float64 {
	prev, ok := h.state[dst]
	if !ok {
		h.state[dst] = value
		return value
	}
	if value < prev*h.collapseFraction {
		// Collapse: follow the network down immediately.
		h.collapses++
		h.state[dst] = value
		return value
	}
	next := h.alpha*prev + (1-h.alpha)*value
	h.state[dst] = next
	return next
}

// Forget implements HistoryPolicy.
func (h *TrendHistory) Forget(dst netip.Prefix) { delete(h.state, dst) }

// Collapses reports how many snap-downs have fired, for observability.
func (h *TrendHistory) Collapses() uint64 { return h.collapses }

var _ HistoryPolicy = (*TrendHistory)(nil)
