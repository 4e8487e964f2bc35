package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"riptide/internal/scenario"
	"riptide/scenarios"
)

// Scenario runs one scenario of the embedded library (riptide/scenarios) and
// renders its report as a Result: one note per assertion with both sides as
// evaluated, and one table of the metrics those assertions read, a column
// per run. The operational experiments are defined, asserted and reported
// from that one place; nothing here knows what any scenario measures.
func Scenario(name string) (Result, error) {
	sp, err := scenarios.Load(name)
	if err != nil {
		return Result{}, err
	}
	return RunScenario(sp)
}

// RunScenario is Scenario for a spec already loaded, which lets a caller
// change it first (riptide-sim -seed replaces its seed).
func RunScenario(sp *scenario.Spec) (Result, error) {
	rep, err := sp.Run(nil)
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: "scenario-" + sp.Name, Title: rep.Description}
	if res.Title == "" {
		res.Title = sp.Name
	}
	for _, a := range rep.Assertions {
		verdict := "holds"
		if !a.Pass {
			verdict = "FAILS"
		}
		res.Notes = append(res.Notes, fmt.Sprintf("`%s` %s (%s vs %s)", a.Source, verdict, formatMetric(a.LHS), formatMetric(a.RHS)))
	}

	// Rows: the asserted metrics, run prefix stripped. Columns: the runs.
	values := make(map[string]float64)
	header := []string{"metric"}
	for _, run := range rep.Runs {
		header = append(header, run.Name)
		for _, m := range run.Metrics {
			values[run.Name+"."+m.Name] = m.Value
		}
	}
	var rows []string
	for _, a := range sp.Assertions {
		for _, qualified := range a.Metrics() {
			_, metric, _ := strings.Cut(qualified, ".")
			rows = append(rows, metric)
		}
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	tbl := Table{
		Title: fmt.Sprintf("Asserted metrics, seed %d, %s simulated (before %s, during %s, after %s)",
			rep.Seed, rep.Duration, rep.Phases.Before, rep.Phases.During, rep.Phases.After),
		Header: header,
	}
	for _, metric := range rows {
		row := []string{metric}
		for _, run := range rep.Runs {
			if v, ok := values[run.Name+"."+metric]; ok {
				row = append(row, formatMetric(v))
			} else {
				row = append(row, "-")
			}
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	res.Tables = []Table{tbl}
	if !rep.Pass {
		return res, fmt.Errorf("experiments: scenario %s failed its assertions: %s", sp.Name, strings.Join(res.Notes, "; "))
	}
	return res, nil
}

// formatMetric prints counts as integers and everything else to 4 digits.
func formatMetric(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
