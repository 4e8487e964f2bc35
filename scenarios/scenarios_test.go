package scenarios

import (
	"bytes"
	"strings"
	"testing"

	"riptide/internal/scenario"
)

// run executes one scenario and returns its report with its encoding.
func run(src []byte) (*scenario.Report, []byte, error) {
	sp, err := scenario.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	rep, err := sp.Run(nil)
	if err != nil {
		return nil, nil, err
	}
	enc, err := rep.Encode()
	return rep, enc, err
}

// TestScenarioLibrary runs every committed operational scenario: each must
// pass its own assertions, and two runs must encode to the same bytes. The
// paper's files (paper-*.yaml) simulate the full 34-PoP mesh for an hour per
// run, 21 runs in all; here they are only parsed, and `make scenarios` and
// `make report-check` run them.
func TestScenarioLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulations in -short mode")
	}
	names := Names()
	if len(names) < 10 {
		t.Fatalf("library lists %v; the embed pattern lost files", names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			src, err := Source(name)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(name, "paper-") {
				sp, err := scenario.Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				if sp.Name != name {
					t.Errorf("scenarios/%s.yaml is named %q", name, sp.Name)
				}
				return
			}
			// The repeat run goes alongside the first: the slowest scenario
			// takes seconds, and the two share nothing.
			var second []byte
			var secondErr error
			done := make(chan struct{})
			go func() {
				defer close(done)
				_, second, secondErr = run(src)
			}()
			rep, first, err := run(src)
			<-done
			if err != nil || secondErr != nil {
				t.Fatal(err, secondErr)
			}
			if !rep.Pass {
				t.Fatalf("assertions failed:\n%s", first)
			}
			if rep.Scenario != name {
				t.Errorf("scenarios/%s.yaml is named %q; -exp scenario-<name> and the docs go by file name", name, rep.Scenario)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("two runs differ:\n%s\n---\n%s", first, second)
			}
		})
	}
}

// TestAssertionsBite breaks each acceptance scenario with a one-line edit
// that removes the mechanism under test, and requires the assertion carrying
// the acceptance bound to fail — a passing library proves nothing if it would
// also pass without fleet sharing or without the governor.
func TestAssertionsBite(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulations in -short mode")
	}
	cases := []struct {
		name, old, new string
		// mustFail are assertions that hold in the library and must not
		// hold after the edit.
		mustFail []string
	}{
		{
			// Sharing never fires inside the run: the main run is as cold
			// as the control.
			name: "fleet-warm-start", old: "      interval: 5s", new: "      interval: 1h",
			mustFail: []string{"4 * riptide.recovery_ticks <= control.recovery_ticks"},
		},
		{
			// A governor that never has enough evidence to judge is no
			// governor: the main run behaves like the control.
			name: "guard-capacity-cut", old: "      min_segments: 24", new: "      min_segments: 1000000000",
			mustFail: []string{
				"riptide.quarantines >= 1",
				"riptide.quarantine_ticks <= 10",
				"riptide.retrans.during < control.retrans.during",
			},
		},
	}
	for _, tc := range cases {
		src, err := Source(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), tc.old) {
			t.Fatalf("%s.yaml no longer contains %q", tc.name, tc.old)
		}
		rep, _, err := run([]byte(strings.Replace(string(src), tc.old, tc.new, 1)))
		if err != nil {
			t.Fatal(err)
		}
		failed := make(map[string]bool)
		for _, a := range rep.Assertions {
			if !a.Pass {
				failed[a.Source] = true
			}
		}
		for _, want := range tc.mustFail {
			if !failed[want] {
				t.Errorf("%s with %q: assertion %q still holds", tc.name, strings.TrimSpace(tc.new), want)
			}
		}
	}
}
