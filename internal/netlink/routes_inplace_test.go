package netlink

import (
	"errors"
	"net/netip"
	"reflect"
	"testing"

	"riptide/internal/core"
)

// attributionOps is seven ops over three chunks at BatchSize 3; reject
// replaces the op at an index with one that fails validation.
func attributionOps(reject map[int]core.RouteOp) []core.RouteOp {
	ops := make([]core.RouteOp, 7)
	for i := range ops {
		ops[i] = core.RouteOp{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}), 32), Window: 10 + i}
	}
	ops[5].Clear = true
	for i, op := range reject {
		ops[i] = op
	}
	return ops
}

// TestRoutesErrorAttributionGolden pins the []error ProgramRoutes returns —
// text and position — to what the copying implementation (valid/validIdx
// built for every batch) returned: the golden strings were printed by that
// code. An all-valid batch is programmed in place, a batch with a rejected op
// through the copies; neither may move an error to another op.
func TestRoutesErrorAttributionGolden(t *testing.T) {
	badPrefix := core.RouteOp{Window: 13}
	badWindow := core.RouteOp{Prefix: netip.MustParsePrefix("10.9.9.9/32")}
	eexist := func(last byte) func(RecordedRoute, bool) Errno {
		return func(rt RecordedRoute, parsed bool) Errno {
			if parsed && rt.Prefix.Addr().As4()[3] == last {
				return EEXIST
			}
			return 0
		}
	}
	const (
		invalid = "netlink: invalid prefix"
		window0 = "netlink: initcwnd 0 must be >= 1"
		send3   = "netlink: route batch send (3 ops): wedged"
		send1   = "netlink: route batch send (1 ops): wedged"
	)
	for _, tc := range []struct {
		name   string
		reject map[int]core.RouteOp
		ack    func(RecordedRoute, bool) Errno
		// sendFailsAfter breaks the conversation once this many route
		// messages went out; 0 never does.
		sendFailsAfter int
		want           []string
		sent           int
	}{
		{name: "all valid", want: nil, sent: 7},
		{name: "rejected at start", reject: map[int]core.RouteOp{0: badPrefix},
			want: []string{invalid, "", "", "", "", "", ""}, sent: 6},
		{name: "rejected in the middle", reject: map[int]core.RouteOp{3: badWindow},
			want: []string{"", "", "", window0, "", "", ""}, sent: 6},
		{name: "rejected at end", reject: map[int]core.RouteOp{6: badPrefix},
			want: []string{"", "", "", "", "", "", invalid}, sent: 6},
		{name: "rejected at every chunk edge", reject: map[int]core.RouteOp{0: badPrefix, 2: badWindow, 3: badPrefix, 6: badWindow},
			want: []string{invalid, "", window0, invalid, "", "", window0}, sent: 3},
		{name: "errno in the second chunk", ack: eexist(5),
			want: []string{"", "", "", "", "netlink: route op replace 10.0.0.5/32 initcwnd 14: file exists (EEXIST)", "", ""}, sent: 7},
		{name: "errno on a clear, last chunk", ack: eexist(6),
			want: []string{"", "", "", "", "", "netlink: route op del 10.0.0.6/32: file exists (EEXIST)", ""}, sent: 7},
		{name: "errno after a rejected op", reject: map[int]core.RouteOp{1: badWindow}, ack: eexist(5),
			want: []string{"", window0, "", "", "netlink: route op replace 10.0.0.5/32 initcwnd 14: file exists (EEXIST)", "", ""}, sent: 6},
		{name: "send fails on the second chunk", sendFailsAfter: 3,
			want: []string{"", "", "", send3, send3, send3, send3}, sent: 3},
		{name: "send fails on the last chunk", sendFailsAfter: 6,
			want: []string{"", "", "", "", "", "", send1}, sent: 6},
		{name: "send fails after an errno and a rejected op", reject: map[int]core.RouteOp{0: badPrefix}, ack: eexist(3), sendFailsAfter: 3,
			want: []string{invalid, "", "netlink: route op replace 10.0.0.3/32 initcwnd 12: file exists (EEXIST)", "", send3, send3, send3}, sent: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := &MemConn{}
			mem.AckErrno = func(rt RecordedRoute, parsed bool) Errno {
				if tc.sendFailsAfter > 0 && len(mem.Routes)+1 == tc.sendFailsAfter {
					mem.SendErr = errors.New("wedged") // from the next datagram on
				}
				if tc.ack != nil {
					return tc.ack(rt, parsed)
				}
				return 0
			}
			r := newMemRoutes(t, mem, RoutesConfig{BatchSize: 3})
			ops := attributionOps(tc.reject)
			before := append([]core.RouteOp(nil), ops...)
			errs := r.ProgramRoutes(ops)
			var got []string
			if errs != nil {
				if len(errs) != len(ops) {
					t.Fatalf("got %d error slots for %d ops", len(errs), len(ops))
				}
				got = make([]string, len(errs))
				for i, err := range errs {
					if err != nil {
						got[i] = err.Error()
					}
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("per-op errors moved:\n got  %q\n want %q", got, tc.want)
			}
			if len(mem.Routes) != tc.sent {
				t.Fatalf("%d route messages reached the kernel, want %d", len(mem.Routes), tc.sent)
			}
			if !reflect.DeepEqual(ops, before) {
				t.Fatalf("ProgramRoutes rewrote the caller's ops:\n got  %v\n want %v", ops, before)
			}
			// What reached the kernel is the valid ops, in order.
			k := 0
			for i, op := range ops {
				if _, rejected := tc.reject[i]; rejected || k >= len(mem.Routes) {
					continue
				}
				if rt := mem.Routes[k]; rt.Prefix != op.Prefix || rt.Del != op.Clear {
					t.Fatalf("kernel message %d is %v (del %v), want op %d %v", k, rt.Prefix, rt.Del, i, op)
				}
				k++
			}
		})
	}
}

// TestRoutesAllValidBatchAllocatesNothingPerOp: an agent only ever plans valid
// ops, so the batch it hands over is programmed where it lies — no copy of the
// ops, no index slice, whatever the batch size.
func TestRoutesAllValidBatchAllocatesNothingPerOp(t *testing.T) {
	mem := &MemConn{DiscardRoutes: true}
	r := newMemRoutes(t, mem, RoutesConfig{})
	ops := make([]core.RouteOp, 7000)
	for i := range ops {
		ops[i] = core.RouteOp{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), 32), Window: 10 + i%90}
	}
	if errs := r.ProgramRoutes(ops); errs != nil { // warm the send and ack buffers
		t.Fatal(firstError(errs))
	}
	allocs := testing.AllocsPerRun(10, func() {
		if errs := r.ProgramRoutes(ops); errs != nil {
			t.Fatal(firstError(errs))
		}
	})
	if allocs > 1 {
		t.Fatalf("an all-valid %d-op batch costs %.0f allocations, want a constant", len(ops), allocs)
	}
	// Single-op calls interleave with batches in production (the retry
	// decorator re-drives failures one at a time); they must not disturb it.
	one := testing.AllocsPerRun(10, func() {
		if err := r.SetInitCwnd(ops[0].Prefix, 10); err != nil {
			t.Fatal(err)
		}
		if errs := r.ProgramRoutes(ops); errs != nil {
			t.Fatal(firstError(errs))
		}
	})
	if one > 1 {
		t.Fatalf("batch after a one-op call costs %.0f allocations", one)
	}
	t.Logf("all-valid %d-op batch: %.0f allocs; with a one-op call between: %.0f", len(ops), allocs, one)
}
