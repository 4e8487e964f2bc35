package netlink

import (
	"errors"
	"fmt"

	"riptide/internal/core"
)

// DefaultRecvBuf is the per-datagram receive buffer size. Kernel sock_diag
// dumps fill each response skb to ~32KiB; a generous buffer means no
// silent truncation even on kernels with larger dump batches.
const DefaultRecvBuf = 256 << 10

// SamplerConfig configures a netlink connection sampler.
type SamplerConfig struct {
	// Dial opens the NETLINK_SOCK_DIAG conversation; nil means the
	// platform Dial.
	Dial DialFunc
	// RecvBuf is the receive buffer size in bytes; 0 means DefaultRecvBuf.
	RecvBuf int
	// Families are the address families to dump; nil means IPv4 then IPv6.
	// Values are Linux AF_* numbers.
	Families []uint8
}

// Sampler implements core.ConnectionSampler over NETLINK_SOCK_DIAG: one
// INET_DIAG dump per address family per tick, decoded straight out of the
// receive buffer into the agent's pooled observation buffer — each socket is
// written once, into its slot (see ParseDiagDump). No fork, no exec, no text;
// steady-state sampling allocates nothing.
//
// The netlink socket persists across ticks and is re-dialed on the tick
// after any conversation error, so a transiently wedged dump cannot poison
// its successors (sequence numbers fence off stale responses as well).
//
// Sampler is not safe for concurrent use; the agent serializes sampling
// under its tick lock.
type Sampler struct {
	cfg  SamplerConfig
	conn Conn
	seq  uint32
	recv []byte
	req  []byte
}

// NewSampler returns a netlink-backed sampler.
func NewSampler(cfg SamplerConfig) (*Sampler, error) {
	if cfg.Dial == nil {
		cfg.Dial = Dial
	}
	if cfg.RecvBuf == 0 {
		cfg.RecvBuf = DefaultRecvBuf
	}
	if cfg.RecvBuf < nlHdrLen {
		return nil, fmt.Errorf("netlink: RecvBuf %d too small", cfg.RecvBuf)
	}
	if cfg.Families == nil {
		cfg.Families = []uint8{afInet, afInet6}
	}
	return &Sampler{cfg: cfg, recv: make([]byte, cfg.RecvBuf)}, nil
}

var _ core.ConnectionSampler = (*Sampler)(nil)

// SampleConnections implements core.ConnectionSampler: observations are
// appended to buf per the pooled-buffer contract. On any conversation error
// the socket is closed (to be re-dialed next call) and nil, err returned.
func (s *Sampler) SampleConnections(buf []core.Observation) ([]core.Observation, error) {
	obs := buf
	for _, family := range s.cfg.Families {
		var err error
		obs, err = s.dump(family, obs)
		if err != nil {
			s.closeConn()
			return nil, err
		}
	}
	return obs, nil
}

// dump runs one full INET_DIAG dump for family, appending observations.
func (s *Sampler) dump(family uint8, obs []core.Observation) ([]core.Observation, error) {
	if s.conn == nil {
		c, err := s.cfg.Dial(ProtoSockDiag)
		if err != nil {
			return nil, err
		}
		s.conn = c
	}
	s.seq++
	if s.seq == 0 {
		s.seq = 1 // 0 is the parser's accept-any sentinel; never send it
	}
	s.req = appendDiagDumpReq(s.req[:0], family, s.seq)
	if err := s.conn.Send(s.req); err != nil {
		return nil, fmt.Errorf("netlink: sock_diag dump request (family %d): %w", family, err)
	}
	for {
		n, err := s.conn.Receive(s.recv)
		if err != nil {
			return nil, fmt.Errorf("netlink: sock_diag dump receive (family %d): %w", family, err)
		}
		if n == 0 {
			return nil, errors.New("netlink: empty datagram mid-dump")
		}
		if n > len(s.recv) {
			n = len(s.recv) // kernel reported truncation; parse what arrived
		}
		var done bool
		obs, done, err = ParseDiagDump(obs, s.recv[:n], s.seq)
		if err != nil {
			return nil, err
		}
		if done {
			return obs, nil
		}
	}
}

// Probe runs one throwaway dump, proving the kernel supports
// NETLINK_SOCK_DIAG and this process may read it.
func (s *Sampler) Probe() error {
	_, err := s.SampleConnections(nil)
	return err
}

// Close releases the netlink socket. The sampler stays usable: the next
// sample re-dials.
func (s *Sampler) Close() error {
	s.closeConn()
	return nil
}

func (s *Sampler) closeConn() {
	if s.conn != nil {
		_ = s.conn.Close()
		s.conn = nil
	}
}
