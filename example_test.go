package riptide_test

import (
	"fmt"
	"net/netip"
	"time"

	"riptide"
)

// exampleSampler stands in for `ss -tin`: each call returns the next round's
// connections, then none once the rounds run out.
type exampleSampler struct{ rounds [][]riptide.Observation }

func (s *exampleSampler) SampleConnections(buf []riptide.Observation) ([]riptide.Observation, error) {
	if len(s.rounds) == 0 {
		return buf, nil
	}
	round := s.rounds[0]
	s.rounds = s.rounds[1:]
	return append(buf, round...), nil
}

// exampleRoutes stands in for `ip route` programming.
type exampleRoutes struct{}

func (exampleRoutes) SetInitCwnd(p netip.Prefix, cwnd int) error {
	fmt.Printf("set %v initcwnd %d\n", p, cwnd)
	return nil
}

func (exampleRoutes) ClearInitCwnd(p netip.Prefix) error {
	fmt.Printf("clear %v\n", p)
	return nil
}

// Example runs Algorithm 1 round by round. Two observed connections to the
// same destination average to a programmed initial window of 80, the
// paper's Figure 7 example; a lone sagging window of 40 next round moves it
// only to 70 through the EWMA history (alpha 0.75); and once no connection
// has been seen for the TTL, the route reverts to the kernel default.
func Example() {
	dst := netip.MustParseAddr("10.0.0.127")
	var clock time.Duration
	agent, err := riptide.New(riptide.Config{
		Sampler: &exampleSampler{rounds: [][]riptide.Observation{
			{{Dst: dst, Cwnd: 60}, {Dst: dst, Cwnd: 100}},
			{{Dst: dst, Cwnd: 40}},
		}},
		Routes: exampleRoutes{},
		Clock:  func() time.Duration { return clock },
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer agent.Close()
	for _, at := range []time.Duration{0, time.Second, time.Second + riptide.DefaultTTL} {
		clock = at
		if err := agent.Tick(); err != nil {
			fmt.Println(err)
			return
		}
	}
	fmt.Println(agent.Len(), "entries")
	// Output:
	// set 10.0.0.127/32 initcwnd 80
	// set 10.0.0.127/32 initcwnd 70
	// clear 10.0.0.127/32
	// 0 entries
}

// ExampleNewTrendHistory shows the Section V trend policy snapping down on a
// window collapse while smoothing ordinary variation.
func ExampleNewTrendHistory() {
	trend, err := riptide.NewTrendHistory(0.9, 0.5)
	if err != nil {
		fmt.Println(err)
		return
	}
	dst := netip.MustParsePrefix("10.0.0.127/32")
	fmt.Println(trend.Update(dst, 100)) // first observation
	fmt.Println(trend.Update(dst, 90))  // smoothed: 0.9*100 + 0.1*90
	fmt.Println(trend.Update(dst, 20))  // collapse below half: snap
	// Output:
	// 100
	// 99
	// 20
}

// ExampleNewLoadBalanceAdvisor shows an orchestrator damping a destination's
// programmed window ahead of a traffic shift onto it, and lifting the damping
// once the shift is complete.
func ExampleNewLoadBalanceAdvisor() {
	dst := netip.MustParseAddr("10.0.0.127")
	steady := make([][]riptide.Observation, 3)
	for i := range steady {
		steady[i] = []riptide.Observation{{Dst: dst, Cwnd: 80}}
	}
	advisor := riptide.NewLoadBalanceAdvisor()
	agent, err := riptide.New(riptide.Config{
		Sampler: &exampleSampler{rounds: steady},
		Routes:  exampleRoutes{},
		Clock:   func() time.Duration { return 0 },
		Advisor: advisor,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	prefix := netip.PrefixFrom(dst, 32)
	_ = agent.Tick()
	if err := advisor.ExpectShift(prefix, 0.25); err != nil {
		fmt.Println(err)
		return
	}
	_ = agent.Tick()
	advisor.ShiftComplete(prefix)
	_ = agent.Tick()
	_ = agent.Close()
	// Output:
	// set 10.0.0.127/32 initcwnd 80
	// set 10.0.0.127/32 initcwnd 20
	// set 10.0.0.127/32 initcwnd 80
	// clear 10.0.0.127/32
}
