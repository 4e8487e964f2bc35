package experiments

import (
	"strings"
	"testing"
)

func TestScenarioUnknown(t *testing.T) {
	_, err := Scenario("volcano")
	if err == nil || !strings.Contains(err.Error(), "peer-partition") {
		t.Errorf("unknown scenario: err = %v, want one listing the library", err)
	}
}

// TestScenarioRendersTheReport checks the adapter's shape on the cheapest
// library scenario: one note per assertion, and a table holding exactly the
// metrics those assertions read, one column per run.
func TestScenarioRendersTheReport(t *testing.T) {
	r, err := Scenario("peer-partition")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "scenario-peer-partition" || r.Title == "" {
		t.Errorf("ID, Title = %q, %q", r.ID, r.Title)
	}
	if len(r.Notes) != 4 || !strings.Contains(r.Notes[0], "riptide.probe_failures.during >= 1") || !strings.Contains(r.Notes[0], "holds") {
		t.Errorf("notes = %q", r.Notes)
	}
	if len(r.Tables) != 1 {
		t.Fatalf("tables = %+v", r.Tables)
	}
	tbl := r.Tables[0]
	if strings.Join(tbl.Header, ",") != "metric,riptide" {
		t.Errorf("header = %v", tbl.Header)
	}
	var metrics []string
	for _, row := range tbl.Rows {
		metrics = append(metrics, row[0])
	}
	if got := strings.Join(metrics, ","); got != "probe_failures.after,probe_failures.before,probe_failures.during,routes.end" {
		t.Errorf("table rows = %s", got)
	}
}
