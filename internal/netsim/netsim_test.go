package netsim

import (
	"math"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"riptide/internal/eventsim"
	"riptide/internal/kernel"
	"riptide/internal/tcpsim"
)

var (
	hostA = netip.MustParseAddr("10.0.0.1")
	hostB = netip.MustParseAddr("10.0.0.2")
)

func newNet(t *testing.T, seed int64) *Network {
	t.Helper()
	n, err := NewNetwork(Config{Engine: eventsim.NewEngine(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// twoHosts builds a two-host network with a lossless 100ms path.
func twoHosts(t *testing.T, cfg PathConfig) *Network {
	t.Helper()
	n := newNet(t, 1)
	if _, err := n.AddHost(hostA); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost(hostB); err != nil {
		t.Fatal(err)
	}
	if cfg.RTT == 0 {
		cfg.RTT = 100 * time.Millisecond
	}
	if err := n.SetBidiPath(hostA, hostB, cfg); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(Config{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewNetwork(Config{Engine: eventsim.NewEngine(), MSS: -1}); err == nil {
		t.Error("negative MSS accepted")
	}
}

func TestAddHostDuplicate(t *testing.T) {
	n := newNet(t, 1)
	if _, err := n.AddHost(hostA); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost(hostA); err == nil {
		t.Error("duplicate host accepted")
	}
}

func TestSetPathValidation(t *testing.T) {
	n := newNet(t, 1)
	_, _ = n.AddHost(hostA)
	_, _ = n.AddHost(hostB)
	bad := []PathConfig{
		{RTT: 0},
		{RTT: -time.Second},
		{RTT: time.Second, LossRate: 1},
		{RTT: time.Second, LossRate: -0.1},
		{RTT: time.Second, CapacitySegments: -1},
		{RTT: time.Second, CongestionLossFactor: -1},
	}
	for i, cfg := range bad {
		if err := n.SetPath(hostA, hostB, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	if err := n.SetPath(netip.MustParseAddr("1.1.1.1"), hostB, PathConfig{RTT: time.Second}); err == nil {
		t.Error("unknown src accepted")
	}
	if err := n.SetPath(hostA, netip.MustParseAddr("1.1.1.1"), PathConfig{RTT: time.Second}); err == nil {
		t.Error("unknown dst accepted")
	}
}

func TestOpenErrors(t *testing.T) {
	n := newNet(t, 1)
	_, _ = n.AddHost(hostA)
	_, _ = n.AddHost(hostB)
	if _, err := n.Open(hostA, hostB); err == nil {
		t.Error("open without path accepted")
	}
	if _, err := n.Open(netip.MustParseAddr("9.9.9.9"), hostB); err == nil {
		t.Error("open from unknown host accepted")
	}
}

func TestOpenUsesKernelDefaultIW(t *testing.T) {
	n := twoHosts(t, PathConfig{})
	c, err := n.Open(hostA, hostB)
	if err != nil {
		t.Fatal(err)
	}
	if c.Window().InitCwnd() != kernel.DefaultInitCwnd {
		t.Errorf("initcwnd = %d, want kernel default", c.Window().InitCwnd())
	}
}

func TestOpenHonoursRiptideRoute(t *testing.T) {
	n := twoHosts(t, PathConfig{})
	h, err := n.Host(hostA)
	if err != nil {
		t.Fatal(err)
	}
	// What the Riptide agent does: install a /32 with learned initcwnd.
	p := netip.PrefixFrom(hostB, 32)
	if err := h.AddRoute(kernel.Route{Prefix: p, InitCwnd: 80, Proto: "static"}); err != nil {
		t.Fatal(err)
	}
	c, err := n.Open(hostA, hostB)
	if err != nil {
		t.Fatal(err)
	}
	if c.Window().InitCwnd() != 80 {
		t.Errorf("initcwnd = %d, want 80 from route", c.Window().InitCwnd())
	}
}

func TestTransferLossless(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 100 * time.Millisecond})
	c, err := n.Open(hostA, hostB)
	if err != nil {
		t.Fatal(err)
	}
	var res TransferResult
	gotDone := false
	// 100KB = 71 segments at 1448B; IW10 lossless slow start: 4 rounds.
	if err := c.Transfer(100*1024, func(r TransferResult) { res = r; gotDone = true }); err != nil {
		t.Fatal(err)
	}
	n.Engine().Run()
	if !gotDone {
		t.Fatal("transfer never completed")
	}
	if res.Rounds != 4 {
		t.Errorf("rounds = %d, want 4", res.Rounds)
	}
	if res.Elapsed != 400*time.Millisecond {
		t.Errorf("elapsed = %v, want 400ms", res.Elapsed)
	}
	if res.Retransmits != 0 {
		t.Errorf("retransmits = %d, want 0", res.Retransmits)
	}
	if n.CompletedTransfers() != 1 {
		t.Errorf("CompletedTransfers = %d", n.CompletedTransfers())
	}
}

func TestTransferWithLargeIWFinishesFaster(t *testing.T) {
	run := func(iw int) time.Duration {
		n := twoHosts(t, PathConfig{RTT: 120 * time.Millisecond})
		h, _ := n.Host(hostA)
		if iw != 0 {
			_ = h.AddRoute(kernel.Route{Prefix: netip.PrefixFrom(hostB, 32), InitCwnd: iw})
		}
		c, err := n.Open(hostA, hostB)
		if err != nil {
			t.Fatal(err)
		}
		var elapsed time.Duration
		_ = c.Transfer(100*1024, func(r TransferResult) { elapsed = r.Elapsed })
		n.Engine().Run()
		return elapsed
	}
	def, riptide := run(0), run(100)
	if riptide >= def {
		t.Errorf("riptide elapsed %v >= default %v", riptide, def)
	}
	if riptide != 120*time.Millisecond {
		t.Errorf("IW100 elapsed = %v, want single RTT", riptide)
	}
}

func TestZeroByteTransfer(t *testing.T) {
	n := twoHosts(t, PathConfig{})
	c, _ := n.Open(hostA, hostB)
	called := false
	if err := c.Transfer(0, func(r TransferResult) {
		called = true
		if r.Rounds != 0 || r.Bytes != 0 {
			t.Errorf("zero transfer result = %+v", r)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("zero-byte transfer callback not invoked synchronously")
	}
}

func TestTransferOnClosedConn(t *testing.T) {
	n := twoHosts(t, PathConfig{})
	c, _ := n.Open(hostA, hostB)
	c.Close()
	if err := c.Transfer(1000, nil); err != ErrConnClosed {
		t.Errorf("err = %v, want ErrConnClosed", err)
	}
}

func TestCloseIdempotentAndUnregisters(t *testing.T) {
	n := twoHosts(t, PathConfig{})
	h, _ := n.Host(hostA)
	c, _ := n.Open(hostA, hostB)
	if h.ConnCount() != 1 {
		t.Fatalf("ConnCount = %d", h.ConnCount())
	}
	c.Close()
	c.Close()
	if h.ConnCount() != 0 {
		t.Errorf("ConnCount after close = %d", h.ConnCount())
	}
	if !c.Closed() {
		t.Error("Closed() = false")
	}
}

func TestTransfersSerializeFIFO(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 100 * time.Millisecond})
	c, _ := n.Open(hostA, hostB)
	var order []int
	_ = c.Transfer(14480, func(TransferResult) { order = append(order, 1) })
	_ = c.Transfer(14480, func(TransferResult) { order = append(order, 2) })
	if c.Idle() {
		t.Error("conn should not be idle with queued transfers")
	}
	n.Engine().Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("completion order = %v", order)
	}
	if !c.Idle() {
		t.Error("conn should be idle after transfers drain")
	}
}

func TestSnapshotReflectsProgress(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 100 * time.Millisecond})
	c, _ := n.Open(hostA, hostB)
	_ = c.Transfer(100*1024, nil)
	n.Engine().Run()
	var snap kernel.ConnSnapshot
	c.SnapshotTo(&snap)
	if snap.Cwnd <= kernel.DefaultInitCwnd {
		t.Errorf("cwnd = %d, want grown beyond initial", snap.Cwnd)
	}
	if snap.BytesAcked < 100*1024 {
		t.Errorf("BytesAcked = %d, want >= 100KB", snap.BytesAcked)
	}
	if snap.Dst != hostB || snap.Src != hostA {
		t.Errorf("snapshot addrs = %v -> %v", snap.Src, snap.Dst)
	}
	if snap.RTT != 100*time.Millisecond {
		t.Errorf("snapshot RTT = %v", snap.RTT)
	}
}

func TestKernelSeesConnection(t *testing.T) {
	n := twoHosts(t, PathConfig{})
	h, _ := n.Host(hostA)
	c, _ := n.Open(hostA, hostB)
	_ = c
	snaps := h.Connections()
	if len(snaps) != 1 {
		t.Fatalf("kernel sees %d conns, want 1", len(snaps))
	}
	if snaps[0].Cwnd != kernel.DefaultInitCwnd {
		t.Errorf("kernel-observed cwnd = %d", snaps[0].Cwnd)
	}
}

func TestRandomLossCausesRetransmits(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 100 * time.Millisecond, LossRate: 0.05})
	c, _ := n.Open(hostA, hostB)
	var res TransferResult
	_ = c.Transfer(1<<20, func(r TransferResult) { res = r })
	n.Engine().Run()
	if res.Retransmits == 0 {
		t.Error("5% loss on 1MB transfer produced no retransmits")
	}
	if res.Bytes < 1<<20 {
		t.Errorf("delivered bytes = %d, want >= 1MB", res.Bytes)
	}
	if c.Window().LossEvents() == 0 {
		t.Error("window never saw a loss event")
	}
}

func TestLossSlowsTransfer(t *testing.T) {
	elapsed := func(loss float64, seed int64) time.Duration {
		engine := eventsim.NewEngine()
		n, err := NewNetwork(Config{Engine: engine, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		_, _ = n.AddHost(hostA)
		_, _ = n.AddHost(hostB)
		_ = n.SetBidiPath(hostA, hostB, PathConfig{RTT: 100 * time.Millisecond, LossRate: loss})
		c, _ := n.Open(hostA, hostB)
		var out time.Duration
		_ = c.Transfer(512*1024, func(r TransferResult) { out = r.Elapsed })
		engine.Run()
		return out
	}
	if clean, lossy := elapsed(0, 7), elapsed(0.08, 7); lossy <= clean {
		t.Errorf("lossy transfer (%v) not slower than clean (%v)", lossy, clean)
	}
}

func TestCongestionLossWhenOverCapacity(t *testing.T) {
	// Tiny capacity: concurrent large transfers must overload the path.
	n := twoHosts(t, PathConfig{RTT: 100 * time.Millisecond, CapacitySegments: 20})
	var totalRetrans int64
	for i := 0; i < 8; i++ {
		c, err := n.Open(hostA, hostB)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.Transfer(512*1024, func(r TransferResult) { totalRetrans += r.Retransmits })
	}
	n.Engine().Run()
	if totalRetrans == 0 {
		t.Error("overloaded path produced no congestion loss")
	}
}

func TestNoCongestionLossUnderCapacity(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 100 * time.Millisecond, CapacitySegments: 100000})
	c, _ := n.Open(hostA, hostB)
	var res TransferResult
	_ = c.Transfer(100*1024, func(r TransferResult) { res = r })
	n.Engine().Run()
	if res.Retransmits != 0 {
		t.Errorf("retransmits = %d under ample capacity", res.Retransmits)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (time.Duration, int64) {
		engine := eventsim.NewEngine()
		n, _ := NewNetwork(Config{Engine: engine, Seed: 42})
		_, _ = n.AddHost(hostA)
		_, _ = n.AddHost(hostB)
		_ = n.SetBidiPath(hostA, hostB, PathConfig{RTT: 80 * time.Millisecond, LossRate: 0.03})
		c, _ := n.Open(hostA, hostB)
		var res TransferResult
		_ = c.Transfer(1<<20, func(r TransferResult) { res = r })
		engine.Run()
		return res.Elapsed, res.Retransmits
	}
	e1, r1 := run()
	e2, r2 := run()
	if e1 != e2 || r1 != r2 {
		t.Errorf("replay diverged: (%v,%d) vs (%v,%d)", e1, r1, e2, r2)
	}
}

func TestRenoAlgorithmOption(t *testing.T) {
	engine := eventsim.NewEngine()
	n, err := NewNetwork(Config{Engine: engine, Algorithm: tcpsim.NewReno()})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = n.AddHost(hostA)
	_, _ = n.AddHost(hostB)
	_ = n.SetBidiPath(hostA, hostB, PathConfig{RTT: time.Millisecond})
	c, _ := n.Open(hostA, hostB)
	if c.Window().Algorithm().Name() != "reno" {
		t.Errorf("algorithm = %q", c.Window().Algorithm().Name())
	}
}

func TestPathRTT(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 150 * time.Millisecond})
	rtt, err := n.PathRTT(hostA, hostB)
	if err != nil || rtt != 150*time.Millisecond {
		t.Errorf("PathRTT = %v, %v", rtt, err)
	}
	if _, err := n.PathRTT(hostA, netip.MustParseAddr("8.8.8.8")); err == nil {
		t.Error("missing path accepted")
	}
}

// Property: lossless transfers complete in exactly the analytic slow-start
// round count (ties netsim to internal/model).
func TestLosslessMatchesModelProperty(t *testing.T) {
	f := func(kb uint16, iwRaw uint8) bool {
		bytes := int64(kb%2000+1) * 1024
		iw := int(iwRaw%150) + 1
		engine := eventsim.NewEngine()
		n, err := NewNetwork(Config{Engine: engine, Seed: 1})
		if err != nil {
			return false
		}
		_, _ = n.AddHost(hostA)
		_, _ = n.AddHost(hostB)
		_ = n.SetBidiPath(hostA, hostB, PathConfig{RTT: 50 * time.Millisecond})
		h, _ := n.Host(hostA)
		_ = h.AddRoute(kernel.Route{Prefix: netip.PrefixFrom(hostB, 32), InitCwnd: iw})
		c, err := n.Open(hostA, hostB)
		if err != nil {
			return false
		}
		var rounds int
		_ = c.Transfer(bytes, func(r TransferResult) { rounds = r.Rounds })
		engine.Run()

		// Analytic: slow start doubling from iw.
		segs := (bytes + int64(n.MSS()) - 1) / int64(n.MSS())
		want, window, sent := 0, int64(iw), int64(0)
		for sent < segs {
			sent += window
			window *= 2
			want++
		}
		return rounds == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: transfers always deliver all requested bytes, under any loss
// rate below 50%.
func TestAllBytesDeliveredProperty(t *testing.T) {
	f := func(kb uint8, lossRaw uint8, seed int64) bool {
		bytes := int64(kb%200+1) * 1024
		loss := float64(lossRaw%50) / 100
		engine := eventsim.NewEngine()
		n, err := NewNetwork(Config{Engine: engine, Seed: seed})
		if err != nil {
			return false
		}
		_, _ = n.AddHost(hostA)
		_, _ = n.AddHost(hostB)
		_ = n.SetBidiPath(hostA, hostB, PathConfig{RTT: 10 * time.Millisecond, LossRate: loss})
		c, err := n.Open(hostA, hostB)
		if err != nil {
			return false
		}
		var res TransferResult
		_ = c.Transfer(bytes, func(r TransferResult) { res = r })
		engine.Run()
		return res.Bytes >= bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIdleRestartResetsWindow(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 100 * time.Millisecond})
	c, _ := n.Open(hostA, hostB)
	_ = c.Transfer(512*1024, nil)
	n.Engine().Run()
	grown := c.Window().Cwnd()
	if grown <= kernel.DefaultInitCwnd {
		t.Fatalf("window never grew: %d", grown)
	}
	// Let the connection idle past the RTO, then start another transfer:
	// RFC 2861 restart must bring the first burst back to the initial
	// window.
	n.Engine().RunUntil(n.Engine().Now() + time.Minute)
	var rounds int
	_ = c.Transfer(512*1024, func(r TransferResult) { rounds = r.Rounds })
	n.Engine().Run()
	// 512KB = 363 segs from IW10: 10+20+40+80+160+320 -> 6 rounds.
	if rounds != 6 {
		t.Errorf("rounds after idle = %d, want 6 (restarted from IW10)", rounds)
	}
}

func TestIdleRestartUsesCurrentRoute(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 100 * time.Millisecond})
	c, _ := n.Open(hostA, hostB)
	_ = c.Transfer(100*1024, nil)
	n.Engine().Run()
	// Riptide programs a route AFTER the connection opened; the idle
	// restart must pick it up, like Linux re-reading dst metrics.
	h, _ := n.Host(hostA)
	_ = h.AddRoute(kernel.Route{Prefix: netip.PrefixFrom(hostB, 32), InitCwnd: 80})
	n.Engine().RunUntil(n.Engine().Now() + time.Minute)
	var rounds int
	_ = c.Transfer(100*1024, func(r TransferResult) { rounds = r.Rounds })
	n.Engine().Run()
	if rounds != 1 {
		t.Errorf("rounds = %d, want 1 (restart window 80 >= 71 segments)", rounds)
	}
	if c.Window().InitCwnd() != 80 {
		t.Errorf("restart window = %d, want 80", c.Window().InitCwnd())
	}
}

func TestIdleRestartDisabled(t *testing.T) {
	engine := eventsim.NewEngine()
	n, err := NewNetwork(Config{Engine: engine, Seed: 1, DisableIdleRestart: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = n.AddHost(hostA)
	_, _ = n.AddHost(hostB)
	_ = n.SetBidiPath(hostA, hostB, PathConfig{RTT: 100 * time.Millisecond})
	c, _ := n.Open(hostA, hostB)
	_ = c.Transfer(512*1024, nil)
	engine.Run()
	engine.RunUntil(engine.Now() + time.Minute)
	var rounds int
	_ = c.Transfer(512*1024, func(r TransferResult) { rounds = r.Rounds })
	engine.Run()
	if rounds >= 6 {
		t.Errorf("rounds = %d with idle restart disabled, want fewer (window kept)", rounds)
	}
}

func TestNoIdleRestartForBackToBackTransfers(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 100 * time.Millisecond})
	c, _ := n.Open(hostA, hostB)
	var first, second int
	_ = c.Transfer(512*1024, func(r TransferResult) { first = r.Rounds })
	_ = c.Transfer(512*1024, func(r TransferResult) { second = r.Rounds })
	n.Engine().Run()
	if second >= first {
		t.Errorf("back-to-back rounds = %d then %d; second should reuse the grown window", first, second)
	}
}

func TestRTTJitterValidation(t *testing.T) {
	n := newNet(t, 1)
	_, _ = n.AddHost(hostA)
	_, _ = n.AddHost(hostB)
	for _, bad := range []float64{-0.1, 1.5} {
		if err := n.SetPath(hostA, hostB, PathConfig{RTT: time.Second, RTTJitter: bad}); err == nil {
			t.Errorf("jitter %v accepted", bad)
		}
	}
}

func TestRTTJitterLengthensRounds(t *testing.T) {
	elapsed := func(jitter float64) time.Duration {
		engine := eventsim.NewEngine()
		n, err := NewNetwork(Config{Engine: engine, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		_, _ = n.AddHost(hostA)
		_, _ = n.AddHost(hostB)
		_ = n.SetBidiPath(hostA, hostB, PathConfig{RTT: 100 * time.Millisecond, RTTJitter: jitter})
		c, _ := n.Open(hostA, hostB)
		var out time.Duration
		_ = c.Transfer(100*1024, func(r TransferResult) { out = r.Elapsed })
		engine.Run()
		return out
	}
	exact := elapsed(0)
	jittered := elapsed(0.1)
	if exact != 400*time.Millisecond {
		t.Errorf("exact elapsed = %v, want 400ms", exact)
	}
	if jittered <= exact {
		t.Errorf("jittered elapsed %v not longer than exact %v", jittered, exact)
	}
	if jittered > 2*exact {
		t.Errorf("jittered elapsed %v implausibly long", jittered)
	}
}

func TestRTTJitterDeterministicPerSeed(t *testing.T) {
	run := func() time.Duration {
		engine := eventsim.NewEngine()
		n, _ := NewNetwork(Config{Engine: engine, Seed: 9})
		_, _ = n.AddHost(hostA)
		_, _ = n.AddHost(hostB)
		_ = n.SetBidiPath(hostA, hostB, PathConfig{RTT: 100 * time.Millisecond, RTTJitter: 0.2})
		c, _ := n.Open(hostA, hostB)
		var out time.Duration
		_ = c.Transfer(256*1024, func(r TransferResult) { out = r.Elapsed })
		engine.Run()
		return out
	}
	if a, b := run(), run(); a != b {
		t.Errorf("jittered runs diverged: %v vs %v", a, b)
	}
}

func TestCloseConnsInvolving(t *testing.T) {
	n := twoHosts(t, PathConfig{})
	hostC := netip.MustParseAddr("10.0.0.3")
	if _, err := n.AddHost(hostC); err != nil {
		t.Fatal(err)
	}
	_ = n.SetBidiPath(hostA, hostC, PathConfig{RTT: 50 * time.Millisecond})
	_ = n.SetBidiPath(hostB, hostC, PathConfig{RTT: 50 * time.Millisecond})

	ab, _ := n.Open(hostA, hostB)
	ac, _ := n.Open(hostA, hostC)
	cb, _ := n.Open(hostC, hostB)
	if n.OpenConns() != 3 {
		t.Fatalf("open = %d", n.OpenConns())
	}

	// Reboot C: both its outgoing and incoming connections die.
	if closed := n.CloseConnsInvolving(hostC); closed != 2 {
		t.Errorf("closed = %d, want 2", closed)
	}
	if !ac.Closed() || !cb.Closed() {
		t.Error("connections touching C survived")
	}
	if ab.Closed() {
		t.Error("unrelated connection killed")
	}
	if n.OpenConns() != 1 {
		t.Errorf("open after reboot = %d, want 1", n.OpenConns())
	}
}

func TestCloseMidTransferStopsRounds(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 100 * time.Millisecond})
	c, _ := n.Open(hostA, hostB)
	done := false
	_ = c.Transfer(1<<20, func(TransferResult) { done = true })
	// Let one round complete, then kill the connection mid-transfer.
	n.Engine().RunUntil(150 * time.Millisecond)
	c.Close()
	n.Engine().Run()
	if done {
		t.Error("transfer completed on a closed connection")
	}
	if !c.Closed() {
		t.Error("Closed() = false after Close")
	}
	if err := c.Transfer(100, nil); err != ErrConnClosed {
		t.Errorf("Transfer after close = %v, want ErrConnClosed", err)
	}
}

func TestSetPathRTTAffectsLiveConn(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 100 * time.Millisecond})
	conn, err := n.Open(hostA, hostB)
	if err != nil {
		t.Fatal(err)
	}
	var first time.Duration
	if err := conn.Transfer(1000, func(r TransferResult) { first = r.Elapsed }); err != nil {
		t.Fatal(err)
	}
	n.Engine().Run()
	if first != 100*time.Millisecond {
		t.Fatalf("one-round transfer took %v, want 100ms", first)
	}
	if err := n.SetPathRTT(hostA, hostB, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var second time.Duration
	// Disable idle restart effects by transferring immediately; one round
	// still fits the initial window.
	if err := conn.Transfer(1000, func(r TransferResult) { second = r.Elapsed }); err != nil {
		t.Fatal(err)
	}
	n.Engine().Run()
	if second != 300*time.Millisecond {
		t.Fatalf("post-flap transfer took %v, want 300ms", second)
	}
	if err := n.SetPathRTT(hostA, hostB, 0); err == nil {
		t.Error("zero RTT accepted")
	}
	if err := n.SetPathRTT(hostA, netip.MustParseAddr("10.9.9.9"), time.Second); err == nil {
		t.Error("unknown path accepted")
	}
}

func TestSetPathBlockedPartition(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 50 * time.Millisecond})
	conn, err := n.Open(hostA, hostB)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetPathBlocked(hostA, hostB, true); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Open(hostA, hostB); err == nil {
		t.Fatal("open over a blocked path succeeded")
	}
	if !n.PathBlocked(hostA, hostB) || n.PathBlocked(hostB, hostA) {
		t.Fatal("PathBlocked does not report exactly the blocked direction")
	}
	// The reverse direction is untouched.
	if c, err := n.Open(hostB, hostA); err != nil {
		t.Fatalf("reverse open failed: %v", err)
	} else {
		c.Close()
	}
	// A transfer over the blocked path makes no progress: every segment is
	// lost and retransmitted.
	done := false
	if err := conn.Transfer(2000, func(TransferResult) { done = true }); err != nil {
		t.Fatal(err)
	}
	n.Engine().RunUntil(n.Engine().Now() + 2*time.Second)
	if done {
		t.Fatal("transfer completed over a blocked path")
	}
	if n.Retransmitted() == 0 {
		t.Fatal("blocked path produced no retransmits")
	}
	// Unblock: the stalled transfer eventually completes.
	if err := n.SetPathBlocked(hostA, hostB, false); err != nil {
		t.Fatal(err)
	}
	n.Engine().RunUntil(n.Engine().Now() + 30*time.Second)
	if !done {
		t.Fatal("transfer did not complete after unblocking")
	}
	if n.PathBlocked(hostA, hostB) {
		t.Fatal("PathBlocked still reports an unblocked path")
	}
	if err := n.SetPathBlocked(hostA, netip.MustParseAddr("10.9.9.9"), true); err == nil {
		t.Error("unknown path accepted")
	}
	if n.PathBlocked(hostA, netip.MustParseAddr("10.9.9.9")) {
		t.Error("a pair with no path reads as blocked")
	}
}

func TestCloseConnsBetween(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 50 * time.Millisecond})
	c1, err := n.Open(hostA, hostB)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := n.Open(hostB, hostA)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.CloseConnsBetween(hostA, hostB); got != 2 {
		t.Fatalf("closed %d conns, want 2", got)
	}
	if !c1.Closed() || !c2.Closed() {
		t.Fatal("connections not closed")
	}
	if got := n.CloseConnsBetween(hostA, hostB); got != 0 {
		t.Fatalf("second close reported %d conns", got)
	}
}

func TestRetransmittedCounterMatchesTransferResults(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 50 * time.Millisecond, LossRate: 0.2})
	conn, err := n.Open(hostA, hostB)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < 5; i++ {
		if err := conn.Transfer(50_000, func(r TransferResult) { total += r.Retransmits }); err != nil {
			t.Fatal(err)
		}
	}
	n.Engine().Run()
	if total == 0 {
		t.Fatal("lossy path produced no retransmits")
	}
	if n.Retransmitted() != total {
		t.Fatalf("network counter %d != sum of transfer results %d", n.Retransmitted(), total)
	}
}

// TestRoundEventFiresOncePerRound pins the connection's single reused round
// event: every round of every queued transfer is exactly one engine event,
// and after Close the round in flight fires once more — to take its burst off
// the path — and then nothing on the connection ever fires or completes.
func TestRoundEventFiresOncePerRound(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 50 * time.Millisecond, LossRate: 0.05, CapacitySegments: 1000})
	e := n.Engine()
	conn, err := n.Open(hostA, hostB)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for i := 0; i < 4; i++ {
		if err := conn.Transfer(200_000, func(r TransferResult) { rounds += r.Rounds }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if rounds == 0 || uint64(rounds) != e.Fired() {
		t.Fatalf("%d rounds over 4 transfers but %d events fired", rounds, e.Fired())
	}
	if conn.path.load != 0 || e.Pending() != 0 {
		t.Fatalf("idle connection left load %d on the path and %d events pending", conn.path.load, e.Pending())
	}

	completed := 0
	for i := 0; i < 3; i++ {
		if err := conn.Transfer(1<<20, func(TransferResult) { completed++ }); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntil(e.Now() + 120*time.Millisecond) // two rounds done, the third in flight
	if conn.path.load == 0 || e.Pending() != 1 {
		t.Fatalf("mid-transfer: load %d, %d events pending, want a burst in flight and 1", conn.path.load, e.Pending())
	}
	conn.Close()
	before := e.Fired()
	e.Run()
	if got := e.Fired() - before; got != 1 {
		t.Errorf("%d events fired after Close, want only the round in flight", got)
	}
	if conn.path.load != 0 {
		t.Errorf("closed connection left load %d on the path", conn.path.load)
	}
	if completed != 0 || conn.sending {
		t.Errorf("after Close: %d transfers completed, sending = %v", completed, conn.sending)
	}
}

// BenchmarkConnTransferRounds is one RTT round of a long transfer per op, on
// the sim-34pop loss rate: the loss draws, the window update and the re-armed
// round event. It must not allocate.
func BenchmarkConnTransferRounds(b *testing.B) {
	e := eventsim.NewEngine()
	n, err := NewNetwork(Config{Engine: e, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range []netip.Addr{hostA, hostB} {
		if _, err := n.AddHost(a); err != nil {
			b.Fatal(err)
		}
	}
	const rtt = 100 * time.Millisecond
	if err := n.SetBidiPath(hostA, hostB, PathConfig{RTT: rtt, LossRate: 0.002}); err != nil {
		b.Fatal(err)
	}
	conn, err := n.Open(hostA, hostB)
	if err != nil {
		b.Fatal(err)
	}
	if err := conn.Transfer(1<<50, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + rtt) // exactly the one pending round
	}
	b.StopTimer()
	if e.Fired() != uint64(b.N) {
		b.Fatalf("%d events fired for %d rounds", e.Fired(), b.N)
	}
}

// TestSequentialTransfersDoNotAllocate pins the two things that let a
// connection carry transfer after transfer without garbage: completed
// transfers return to the network's free list, and the queue shifts down
// instead of reslicing, so it keeps its array. After one warm-up transfer, a
// hundred more on the same connection allocate nothing.
func TestSequentialTransfersDoNotAllocate(t *testing.T) {
	n := twoHosts(t, PathConfig{RTT: 50 * time.Millisecond, LossRate: 0.01})
	c, err := n.Open(hostA, hostB)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	done := func(TransferResult) { completed++ }
	send := func() {
		if err := c.Transfer(64*1024, done); err != nil {
			t.Fatal(err)
		}
		n.Engine().Run()
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("a transfer allocates %.0f times after warm-up, want 0", allocs)
	}
	// The warm-up, AllocsPerRun's own warm-up run, then the measured hundred.
	if completed != 102 || !c.Idle() {
		t.Errorf("%d transfers completed (idle %v), want 102", completed, c.Idle())
	}
}

// lossMoments is the per-round loss count's mean, variance and share of
// loss-free rounds, with the standard error of each estimate.
type lossMoments struct {
	mean, variance, p0       float64
	seMean, seVariance, seP0 float64
}

func momentsOf(counts []int64) lossMoments {
	n := float64(len(counts))
	var sum, zeros float64
	for _, c := range counts {
		sum += float64(c)
		if c == 0 {
			zeros++
		}
	}
	mean := sum / n
	var m2, m4 float64
	for _, c := range counts {
		d := float64(c) - mean
		m2 += d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m4 /= n
	p0 := zeros / n
	return lossMoments{
		mean: mean, variance: m2, p0: p0,
		seMean:     math.Sqrt(m2 / n),
		seVariance: math.Sqrt((m4 - m2*m2) / n),
		seP0:       math.Sqrt(p0 * (1 - p0) / n),
	}
}

// TestLossLawMatchesBernoulli: the gap counter must realise exactly the law
// of one independent Bernoulli(p) draw per segment. Over 10⁵ rounds of 1–64
// segments each, at p ∈ {0.002, 0.05, 0.3}, with p held and with p switching
// between p and p/2 every round (the counter is redrawn at each switch), the
// per-round loss count's mean, variance and P(0) must each match a
// per-segment Bernoulli reference run over the same sizes and probabilities
// to within 5 standard errors of the difference.
func TestLossLawMatchesBernoulli(t *testing.T) {
	const rounds = 100_000
	for _, base := range []float64{0.002, 0.05, 0.3} {
		for _, switching := range []bool{false, true} {
			sizes := rand.New(rand.NewSource(1))
			gapRNG := rand.New(rand.NewSource(2))
			refRNG := rand.New(rand.NewSource(3))
			var p path
			got := make([]int64, rounds)
			want := make([]int64, rounds)
			for r := range got {
				prob := base
				if switching && r%2 == 1 {
					prob = base / 2
				}
				send := 1 + sizes.Int63n(64)
				got[r] = p.lose(send, prob, gapRNG)
				for i := int64(0); i < send; i++ {
					if refRNG.Float64() < prob {
						want[r]++
					}
				}
			}
			g, w := momentsOf(got), momentsOf(want)
			for _, m := range []struct {
				name           string
				got, want, tol float64
			}{
				{"mean", g.mean, w.mean, 5 * math.Hypot(g.seMean, w.seMean)},
				{"variance", g.variance, w.variance, 5 * math.Hypot(g.seVariance, w.seVariance)},
				{"P(0)", g.p0, w.p0, 5 * math.Hypot(g.seP0, w.seP0)},
			} {
				if math.Abs(m.got-m.want) > m.tol {
					t.Errorf("p=%v switching=%v: %s %.4f, per-segment reference %.4f (tolerance %.4f)",
						base, switching, m.name, m.got, m.want, m.tol)
				}
			}
		}
	}
}

// TestLossEdgeCases: p ≥ 1 loses every segment and p = 0 loses none, both
// without a draw; a blocked path loses every segment and leaves the gap
// counter as it was.
func TestLossEdgeCases(t *testing.T) {
	untouched := func(rng *rand.Rand, seed int64) bool {
		return rng.Int63() == rand.New(rand.NewSource(seed)).Int63()
	}
	for _, prob := range []float64{1, 1.3} {
		rng := rand.New(rand.NewSource(5))
		var p path
		if lost := p.lose(37, prob, rng); lost != 37 || !untouched(rng, 5) {
			t.Errorf("p=%v: lost %d of 37 (rng untouched: %v), want all and no draw", prob, lost, untouched(rng, 5))
		}
	}
	rng := rand.New(rand.NewSource(6))
	p := path{gap: 3, gapProb: 0.1}
	if lost := p.lose(37, 0, rng); lost != 0 || p.gap != 3 || p.gapProb != 0.1 || !untouched(rng, 6) {
		t.Errorf("p=0: lost %d, counter %d/%v, want none, the counter kept and no draw", lost, p.gap, p.gapProb)
	}

	n := twoHosts(t, PathConfig{RTT: 50 * time.Millisecond, LossRate: 0.05})
	c, err := n.Open(hostA, hostB)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Transfer(1<<20, nil); err != nil {
		t.Fatal(err)
	}
	n.Engine().RunUntil(120 * time.Millisecond) // rounds sent at 0, 50 and 100 ms
	gap, prob := c.path.gap, c.path.gapProb
	if prob != 0.05 {
		t.Fatalf("gap counter drawn for p=%v, want 0.05", prob)
	}
	if err := n.SetPathBlocked(hostA, hostB, true); err != nil {
		t.Fatal(err)
	}
	n.Engine().RunUntil(170 * time.Millisecond) // the round sent at 150 ms meets the block
	if c.roundSent == 0 || c.roundLost != c.roundSent || c.path.gap != gap || c.path.gapProb != prob {
		t.Errorf("blocked round lost %d of %d, counter %d/%v (was %d/%v), want all lost and the counter kept",
			c.roundLost, c.roundSent, c.path.gap, c.path.gapProb, gap, prob)
	}
}
