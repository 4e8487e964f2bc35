package netlink

import (
	"errors"
	"fmt"
	"net"
	"net/netip"

	"riptide/internal/core"
)

// DefaultBatchSize is the number of route messages packed into one sendto.
// Each message is ~70 bytes, so a full batch stays an order of magnitude
// under the default netlink socket buffers.
const DefaultBatchSize = 128

// RoutesConfig configures the netlink route programmer.
type RoutesConfig struct {
	// Device is the outgoing interface (`dev eth0`). Optional.
	Device string
	// Gateway is the next hop (`via 10.0.0.1`). Optional, but most
	// deployments need it: the route Riptide adds must otherwise mirror
	// the default route (paper Section III-C).
	Gateway string
	// SetInitRwnd, when true, also sets initrwnd so the receive window
	// can absorb the initial burst (paper Section III-C).
	SetInitRwnd bool

	// DeviceIndex is the outgoing interface index; 0 means resolve Device
	// by name at construction (when Device is set).
	DeviceIndex int
	// Dial opens the NETLINK_ROUTE conversation; nil means the platform
	// Dial.
	Dial DialFunc
	// BatchSize caps route messages per sendto; 0 means DefaultBatchSize.
	BatchSize int
	// RecvBuf is the ack/dump receive buffer size; 0 means DefaultRecvBuf.
	RecvBuf int
}

// Routes implements core.RouteProgrammer and core.BatchRouteProgrammer over
// NETLINK_ROUTE: RTM_NEWROUTE with NLM_F_CREATE|NLM_F_REPLACE (the `ip
// route replace` semantics), RTM_DELROUTE for withdrawals, RTAX_INITCWND
// (and optionally RTAX_INITRWND) under RTA_METRICS. Batches pack many
// messages into one send and collect one NLMSG_ERROR ack per message, so —
// unlike `ip -force -batch`, whose exit status is all-or-nothing — every
// batch member gets native per-op error attribution.
//
// Routes is not safe for concurrent use; the agent serializes programming
// under its tick lock.
type Routes struct {
	cfg  RoutesConfig
	wire routeWire
	conn Conn
	seq  uint32

	sendBuf []byte
	recv    []byte
	acked   []bool
	one     [1]core.RouteOp
	listBuf []RecordedRoute
}

// NewRoutes returns a netlink route programmer. A configured Device that
// cannot be resolved to an interface index is an error, mirroring how `ip
// route replace ... dev X` would fail later.
func NewRoutes(cfg RoutesConfig) (*Routes, error) {
	if cfg.Dial == nil {
		cfg.Dial = Dial
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("netlink: BatchSize %d must be >= 1", cfg.BatchSize)
	}
	if cfg.RecvBuf == 0 {
		cfg.RecvBuf = DefaultRecvBuf
	}
	r := &Routes{cfg: cfg, recv: make([]byte, cfg.RecvBuf)}
	r.wire.table = rtTableMain
	r.wire.initRwnd = cfg.SetInitRwnd
	if cfg.Gateway != "" {
		gw, err := netip.ParseAddr(cfg.Gateway)
		if err != nil {
			return nil, fmt.Errorf("netlink: gateway %q: %w", cfg.Gateway, err)
		}
		r.wire.gw = gw
	}
	switch {
	case cfg.DeviceIndex > 0:
		r.wire.oif = uint32(cfg.DeviceIndex)
	case cfg.Device != "":
		ifi, err := net.InterfaceByName(cfg.Device)
		if err != nil {
			return nil, fmt.Errorf("netlink: device %q: %w", cfg.Device, err)
		}
		r.wire.oif = uint32(ifi.Index)
	}
	return r, nil
}

var (
	_ core.RouteProgrammer      = (*Routes)(nil)
	_ core.BatchRouteProgrammer = (*Routes)(nil)
)

// SetInitCwnd implements core.RouteProgrammer.
func (r *Routes) SetInitCwnd(prefix netip.Prefix, cwnd int) error {
	r.one[0] = core.RouteOp{Prefix: prefix, Window: cwnd}
	return firstError(r.ProgramRoutes(r.one[:]))
}

// ClearInitCwnd implements core.RouteProgrammer.
func (r *Routes) ClearInitCwnd(prefix netip.Prefix) error {
	r.one[0] = core.RouteOp{Prefix: prefix, Clear: true}
	return firstError(r.ProgramRoutes(r.one[:]))
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ProgramRoutes implements core.BatchRouteProgrammer. Ops are validated up
// front (a valid prefix, and a window of at least 1 unless clearing),
// encoded into one buffer per batch-size chunk, sent with one syscall, and
// acked individually: the kernel answers every NLM_F_ACK message with an
// NLMSG_ERROR whose sequence number identifies the op, so failures are
// attributed natively instead of through the retry decorator's re-drive.
// Returns nil when everything succeeded, otherwise a slice of exactly
// len(ops) per-op errors.
func (r *Routes) ProgramRoutes(ops []core.RouteOp) []error {
	if len(ops) == 0 {
		return nil
	}
	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(ops))
		}
		errs[i] = err
	}
	// A batch with no rejected op — every batch an agent plans — is programmed
	// where it lies: valid is ops and validIdx nil. From the first rejection on
	// the valid ops are copied out, valid[k] being ops[validIdx[k]].
	valid, validIdx := ops, []int(nil)
	reject := func(i int, err error) {
		if validIdx == nil {
			valid = append(make([]core.RouteOp, 0, len(ops)-1), ops[:i]...)
			validIdx = make([]int, i, len(ops)-1)
			for k := range validIdx {
				validIdx[k] = k
			}
		}
		fail(i, err)
	}
	for i, op := range ops {
		switch {
		case !op.Prefix.IsValid():
			reject(i, errors.New("netlink: invalid prefix"))
		case !op.Clear && op.Window < 1:
			reject(i, fmt.Errorf("netlink: initcwnd %d must be >= 1", op.Window))
		case validIdx != nil:
			valid = append(valid, op)
			validIdx = append(validIdx, i)
		}
	}
	at := func(k int) int {
		if validIdx == nil {
			return k
		}
		return validIdx[k]
	}
	for start := 0; start < len(valid); start += r.cfg.BatchSize {
		end := min(start+r.cfg.BatchSize, len(valid))
		err := r.programChunk(valid[start:end], func(k int, err error) { fail(at(start+k), err) })
		if err != nil {
			// The conversation itself broke: every op not yet acked in this
			// and later chunks failed with it.
			for k := start; k < len(valid); k++ {
				if i := at(k); k >= end || errs == nil || errs[i] == nil {
					fail(i, err)
				}
			}
			r.closeConn()
			return errs
		}
	}
	return errs
}

// programChunk sends one chunk and collects its acks. Per-op kernel errors
// go through fail under the op's position in the chunk; a returned error
// means the conversation broke.
func (r *Routes) programChunk(chunk []core.RouteOp, fail func(int, error)) error {
	if r.conn == nil {
		c, err := r.cfg.Dial(ProtoRoute)
		if err != nil {
			return err
		}
		r.conn = c
	}
	// Encode the chunk with consecutive sequence numbers: ack seq - base
	// indexes straight into the chunk.
	base := r.seq + 1
	r.sendBuf = r.sendBuf[:0]
	for _, op := range chunk {
		r.seq++
		if r.seq == 0 {
			r.seq = 1
			base = 1
		}
		r.sendBuf = appendRouteReq(r.sendBuf, op, &r.wire, r.seq)
	}
	if err := r.conn.Send(r.sendBuf); err != nil {
		return fmt.Errorf("netlink: route batch send (%d ops): %w", len(chunk), err)
	}
	if cap(r.acked) < len(chunk) {
		r.acked = make([]bool, len(chunk))
	}
	r.acked = r.acked[:len(chunk)]
	clear(r.acked)
	remaining := len(chunk)
	for remaining > 0 {
		n, err := r.conn.Receive(r.recv)
		if err != nil {
			return fmt.Errorf("netlink: route batch ack receive: %w", err)
		}
		if n > len(r.recv) {
			n = len(r.recv)
		}
		data := r.recv[:n]
		for len(data) >= nlHdrLen {
			mlen := int(ne.Uint32(data))
			typ := ne.Uint16(data[4:])
			if mlen < nlHdrLen || mlen > len(data) {
				break
			}
			payload := data[nlHdrLen:mlen]
			adv := nlaAlign(mlen)
			if adv > len(data) {
				data = nil
			} else {
				data = data[adv:]
			}
			if typ != nlmsgError || len(payload) < 4 {
				continue
			}
			// The echoed request header inside the ack payload carries the
			// sequence number that names the op.
			if len(payload) < 4+nlHdrLen {
				continue
			}
			eseq := ne.Uint32(payload[4+8:])
			k := int(eseq) - int(base)
			if k < 0 || k >= len(chunk) || r.acked[k] {
				continue // stale or duplicate ack
			}
			r.acked[k] = true
			remaining--
			if e := decodeAckErrno(payload); e != 0 {
				fail(k, fmt.Errorf("netlink: route op %s: %w", opString(chunk[k]), e))
			}
		}
	}
	return nil
}

// opString renders an op for error messages.
func opString(op core.RouteOp) string {
	if op.Clear {
		return fmt.Sprintf("del %s", op.Prefix)
	}
	return fmt.Sprintf("replace %s initcwnd %d", op.Prefix, op.Window)
}

// ListRiptideRoutes returns the installed routes a Riptide agent owns —
// main-table proto-static routes carrying an initcwnd metric — decoded from
// an RTM_GETROUTE dump.
func (r *Routes) ListRiptideRoutes() ([]RecordedRoute, error) {
	if r.conn == nil {
		c, err := r.cfg.Dial(ProtoRoute)
		if err != nil {
			return nil, err
		}
		r.conn = c
	}
	r.seq++
	if r.seq == 0 {
		r.seq = 1
	}
	r.sendBuf = appendRouteDumpReq(r.sendBuf[:0], r.seq)
	if err := r.conn.Send(r.sendBuf); err != nil {
		r.closeConn()
		return nil, fmt.Errorf("netlink: route dump request: %w", err)
	}
	r.listBuf = r.listBuf[:0]
	for {
		n, err := r.conn.Receive(r.recv)
		if err != nil {
			r.closeConn()
			return nil, fmt.Errorf("netlink: route dump receive: %w", err)
		}
		if n > len(r.recv) {
			n = len(r.recv)
		}
		var done bool
		r.listBuf, done, err = ParseRouteDump(r.listBuf, r.recv[:n], r.seq)
		if err != nil {
			r.closeConn()
			return nil, err
		}
		if done {
			break
		}
		if n == 0 {
			r.closeConn()
			return nil, errors.New("netlink: empty datagram mid-dump")
		}
	}
	var mine []RecordedRoute
	for _, rt := range r.listBuf {
		if rt.Proto == rtprotStatic && rt.InitCwnd > 0 && rt.Table == rtTableMain {
			mine = append(mine, rt)
		}
	}
	return mine, nil
}

// Reconcile removes every leftover Riptide route from a previous
// incarnation, withdrawing them in one batch. A restarting agent calls it
// before its first Tick so stale aggressive windows from before a crash or
// reboot cannot outlive the observations that justified them. A listing the
// kernel flags interrupted may have skipped routes, so it is taken once more;
// a second interrupted listing is an error, and nothing is withdrawn.
func (r *Routes) Reconcile() (removed int, err error) {
	stale, err := r.ListRiptideRoutes()
	if errors.Is(err, ErrDumpInterrupted) {
		stale, err = r.ListRiptideRoutes()
	}
	if err != nil {
		return 0, err
	}
	if len(stale) == 0 {
		return 0, nil
	}
	ops := make([]core.RouteOp, len(stale))
	for i, route := range stale {
		ops[i] = core.RouteOp{Prefix: route.Prefix, Clear: true}
	}
	errs := r.ProgramRoutes(ops)
	var firstErr error
	for i := range ops {
		var opErr error
		if errs != nil {
			opErr = errs[i]
		}
		if opErr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("netlink: clear stale %v: %w", ops[i].Prefix, opErr)
			}
			continue
		}
		removed++
	}
	return removed, firstErr
}

// Probe reports whether this process may program routes, so a daemon can
// fail at startup instead of on its first tick. It sends a deliberately
// invalid RTM_NEWROUTE (see appendProbeReq) and inspects the ack. The
// kernel checks CAP_NET_ADMIN before validating the route, so EINVAL proves
// this process may program routes while EPERM/EACCES means it may not —
// nothing is mutated either way.
func (r *Routes) Probe() error {
	if r.conn == nil {
		c, err := r.cfg.Dial(ProtoRoute)
		if err != nil {
			return err
		}
		r.conn = c
	}
	r.seq++
	if r.seq == 0 {
		r.seq = 1
	}
	r.sendBuf = appendProbeReq(r.sendBuf[:0], r.seq)
	if err := r.conn.Send(r.sendBuf); err != nil {
		r.closeConn()
		return fmt.Errorf("netlink: probe send: %w", err)
	}
	for {
		n, err := r.conn.Receive(r.recv)
		if err != nil {
			r.closeConn()
			return fmt.Errorf("netlink: probe receive: %w", err)
		}
		data := r.recv[:min(n, len(r.recv))]
		for len(data) >= nlHdrLen {
			mlen := int(ne.Uint32(data))
			typ := ne.Uint16(data[4:])
			mseq := ne.Uint32(data[8:])
			if mlen < nlHdrLen || mlen > len(data) {
				break
			}
			payload := data[nlHdrLen:mlen]
			adv := nlaAlign(mlen)
			if adv > len(data) {
				data = nil
			} else {
				data = data[adv:]
			}
			if typ != nlmsgError || mseq != r.seq || len(payload) < 4 {
				continue
			}
			switch e := decodeAckErrno(payload); e {
			case 0, EINVAL, ESRCH:
				return nil
			default:
				return fmt.Errorf("netlink: route programming unavailable: %w", e)
			}
		}
	}
}

// Close releases the netlink socket. The programmer stays usable: the next
// operation re-dials.
func (r *Routes) Close() error {
	r.closeConn()
	return nil
}

func (r *Routes) closeConn() {
	if r.conn != nil {
		_ = r.conn.Close()
		r.conn = nil
	}
}
