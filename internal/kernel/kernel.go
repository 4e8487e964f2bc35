// Package kernel simulates the two Linux kernel surfaces Riptide touches:
//
//   - the connection table, which `ss -i` exposes (per-connection cwnd, RTT,
//     bytes acked), and
//   - the routing table, which `ip route ... initcwnd N` programs
//     (longest-prefix-match routes carrying an initial-congestion-window
//     attribute).
//
// Each simulated machine owns one Host. New connections ask the Host for
// their initial window, which resolves through the route table exactly like
// Linux: the most specific matching route wins; routes without an explicit
// initcwnd fall back to the kernel default of 10 segments.
package kernel

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"time"
)

// DefaultInitCwnd is the kernel's default initial congestion window when no
// route overrides it (RFC 6928; Linux >= 2.6.39).
const DefaultInitCwnd = 10

// Route is one entry in a Host's routing table.
type Route struct {
	// Prefix is the destination this route matches.
	Prefix netip.Prefix
	// InitCwnd is the initial congestion window in segments; 0 means the
	// route does not override the kernel default.
	InitCwnd int
	// Proto labels who installed the route ("kernel", "static"); Riptide
	// installs "static" routes like the paper's `ip route ... proto
	// static` invocation.
	Proto string
}

// ConnSnapshot is what `ss -i` would report for one established connection.
type ConnSnapshot struct {
	ID         uint64
	Src, Dst   netip.Addr
	SrcPort    uint16
	DstPort    uint16
	Cwnd       int
	RTT        time.Duration
	BytesAcked int64
	// Retrans is the cumulative count of retransmitted segments, matching
	// the total in ss's `retrans:<inflight>/<total>`.
	Retrans int64
	// SegsOut is the cumulative count of segments sent, including
	// retransmissions (ss `segs_out:N`).
	SegsOut int64
	// Opened is the simulated time the connection was established.
	Opened time.Duration
}

// Snapshotter supplies the current state of a live connection. internal/netsim
// connections implement this; the Host never reaches into protocol state.
type Snapshotter interface {
	// SnapshotTo writes every field of the connection's snapshot into the
	// caller's slot, so a table sample fills its buffer in place instead of
	// copying each snapshot out through a return value.
	SnapshotTo(*ConnSnapshot)
}

// Host simulates one machine's kernel networking state. Host is safe for
// concurrent use; the simulator is single-threaded but the Riptide agent's
// Linux backend shares the same interfaces from multiple goroutines.
type Host struct {
	addr netip.Addr

	mu     sync.Mutex
	routes map[netip.Prefix]Route
	// lens4[b] / lens6[b] count the installed IPv4 / IPv6 routes of prefix
	// length b, so Lookup probes the map once per installed length instead
	// of testing every route (a simulated host carries ≈30 /32 routes).
	lens4 [33]int
	lens6 [129]int
	// conns is in slot order: Register appends, Unregister moves the last
	// row into the hole. A row keeps its position while its connection
	// lives, unless it is the last row and an earlier one closes.
	conns     []connRef
	nextConn  uint64
	defaultIW int
}

// NewHost creates a Host with the given address and the Linux-default
// initial window.
func NewHost(addr netip.Addr) (*Host, error) {
	if !addr.IsValid() {
		return nil, fmt.Errorf("kernel: invalid host address")
	}
	return &Host{
		addr:      addr,
		routes:    make(map[netip.Prefix]Route),
		defaultIW: DefaultInitCwnd,
	}, nil
}

// Addr returns the host's address.
func (h *Host) Addr() netip.Addr { return h.addr }

// SetDefaultInitCwnd overrides the kernel default initial window (sysctl
// analogue). Values < 1 are rejected.
func (h *Host) SetDefaultInitCwnd(iw int) error {
	if iw < 1 {
		return fmt.Errorf("kernel: default initcwnd %d must be >= 1", iw)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.defaultIW = iw
	return nil
}

// AddRoute installs or replaces a route, like `ip route replace`.
func (h *Host) AddRoute(r Route) error {
	if !r.Prefix.IsValid() {
		return fmt.Errorf("kernel: invalid route prefix")
	}
	if r.InitCwnd < 0 {
		return fmt.Errorf("kernel: route initcwnd %d must be >= 0", r.InitCwnd)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.setRouteLocked(r)
	return nil
}

// lenCount returns the per-length route counter key belongs to.
func (h *Host) lenCount(key netip.Prefix) *int {
	if key.Addr().Is4() {
		return &h.lens4[key.Bits()]
	}
	return &h.lens6[key.Bits()]
}

// setRouteLocked installs or replaces the route for r's masked prefix.
func (h *Host) setRouteLocked(r Route) {
	key := r.Prefix.Masked()
	if _, ok := h.routes[key]; !ok {
		*h.lenCount(key)++
	}
	h.routes[key] = Route{Prefix: key, InitCwnd: r.InitCwnd, Proto: r.Proto}
}

// delRouteLocked removes the route for prefix, reporting whether one existed.
func (h *Host) delRouteLocked(prefix netip.Prefix) bool {
	key := prefix.Masked()
	if _, ok := h.routes[key]; !ok {
		return false
	}
	delete(h.routes, key)
	*h.lenCount(key)--
	return true
}

// DelRoute removes the route for prefix, like `ip route del`. It reports
// whether a route existed.
func (h *Host) DelRoute(prefix netip.Prefix) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.delRouteLocked(prefix)
}

// RouteUpdate is one element of a batched routing-table edit: install Route
// (Delete false) or remove Route.Prefix (Delete true).
type RouteUpdate struct {
	Route  Route
	Delete bool
}

// ApplyRoutes applies a whole batch of route edits under a single lock
// acquisition — the simulated analogue of `ip -batch`. It returns nil when
// every update applied, otherwise a slice with one slot per update (nil
// slots mark successes). Deleting an absent prefix is a no-op, matching
// DelRoute's tolerance; invalid updates fail individually without aborting
// the rest of the batch.
func (h *Host) ApplyRoutes(updates []RouteUpdate) []error {
	var errs []error
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, u := range updates {
		var err error
		switch {
		case !u.Route.Prefix.IsValid():
			err = fmt.Errorf("kernel: invalid route prefix")
		case u.Delete:
			h.delRouteLocked(u.Route.Prefix)
		case u.Route.InitCwnd < 0:
			err = fmt.Errorf("kernel: route initcwnd %d must be >= 0", u.Route.InitCwnd)
		default:
			h.setRouteLocked(u.Route)
		}
		if err != nil {
			if errs == nil {
				errs = make([]error, len(updates))
			}
			errs[i] = err
		}
	}
	return errs
}

// Routes returns a copy of the routing table, most-specific first.
func (h *Host) Routes() []Route {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Route, 0, len(h.routes))
	for _, r := range h.routes {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b Route) int {
		if a.Prefix.Bits() != b.Prefix.Bits() {
			return b.Prefix.Bits() - a.Prefix.Bits()
		}
		return a.Prefix.Addr().Compare(b.Prefix.Addr())
	})
	return out
}

// RouteCount reports the number of installed routes.
func (h *Host) RouteCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.routes)
}

// Lookup returns the most specific route matching dst, if any.
func (h *Host) Lookup(dst netip.Addr) (Route, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lookupLocked(dst)
}

// lookupLocked is the longest-prefix match: one map probe per installed
// prefix length of dst's family, longest first. Like netip.Prefix.Contains,
// an IPv4 address matches only IPv4 routes, an IPv4-mapped IPv6 address only
// IPv6 routes, and a zoned or zero address nothing.
func (h *Host) lookupLocked(dst netip.Addr) (Route, bool) {
	if !dst.IsValid() || dst.Zone() != "" {
		return Route{}, false
	}
	lens := h.lens6[:]
	if dst.Is4() {
		lens = h.lens4[:]
	}
	for bits := len(lens) - 1; bits >= 0; bits-- {
		if lens[bits] == 0 {
			continue
		}
		// bits is within dst's family, so Prefix cannot fail.
		key, _ := dst.Prefix(bits)
		if r, ok := h.routes[key]; ok {
			return r, true
		}
	}
	return Route{}, false
}

// InitCwndFor resolves the initial congestion window a new connection to dst
// will start with: the longest-prefix-match route's initcwnd if it sets one,
// otherwise the kernel default.
func (h *Host) InitCwndFor(dst netip.Addr) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r, ok := h.lookupLocked(dst); ok && r.InitCwnd != 0 {
		return r.InitCwnd
	}
	return h.defaultIW
}

// Register adds a live connection to the host's connection table and
// returns its kernel-assigned id. The caller must Unregister when the
// connection closes.
func (h *Host) Register(s Snapshotter) (uint64, error) {
	if s == nil {
		return 0, fmt.Errorf("kernel: nil snapshotter")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextConn++
	h.conns = append(h.conns, connRef{id: h.nextConn, s: s})
	return h.nextConn, nil
}

// Unregister removes a connection from the table. It reports whether the id
// was present. The table's last row moves into the hole, so every other row
// keeps its position: a dump is in slot order, and a close shifts no row but
// the one that fills the gap.
func (h *Host) Unregister(id uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.conns {
		if h.conns[i].id == id {
			last := len(h.conns) - 1
			h.conns[i] = h.conns[last]
			h.conns[last] = connRef{} // do not keep the closed connection reachable
			h.conns = h.conns[:last]
			return true
		}
	}
	return false
}

// connRef is one row of the connection table.
type connRef struct {
	id uint64
	s  Snapshotter
}

// refScratch pools the copies of the connection table AppendConnections
// snapshots from once the host lock is released.
var refScratch = sync.Pool{New: func() any { return new([]connRef) }}

// Connections snapshots every established connection, like `ss -tin`.
// Results are in slot order (see Unregister), which is deterministic for a
// given sequence of Register and Unregister calls.
func (h *Host) Connections() []ConnSnapshot {
	return h.AppendConnections(nil)
}

// AppendConnections is Connections into a caller-provided buffer: snapshots
// are written in place into slots appended to buf and the grown slice
// returned, so a sampling loop that reuses its buffer neither allocates nor
// copies a snapshot twice. The table is copied under the host lock and the
// SnapshotTo calls happen outside it, preserving the package's lock
// discipline (connection state locks never nest inside the host's).
func (h *Host) AppendConnections(buf []ConnSnapshot) []ConnSnapshot {
	scratch := refScratch.Get().(*[]connRef)
	h.mu.Lock()
	refs := append((*scratch)[:0], h.conns...)
	h.mu.Unlock()

	n := len(buf)
	buf = slices.Grow(buf, len(refs))[:n+len(refs)]
	for i, ref := range refs {
		slot := &buf[n+i]
		ref.s.SnapshotTo(slot)
		slot.ID = ref.id
	}
	clear(refs) // do not keep closed connections reachable from the pool
	*scratch = refs
	refScratch.Put(scratch)
	return buf
}

// ConnCount reports the number of established connections.
func (h *Host) ConnCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.conns)
}
