// Package scenarios is the committed scenario library: every simulated-fleet
// experiment the repository asserts — the operational incidents and the
// paper's cluster evaluation (paper-*.yaml) — one YAML file each (format:
// docs/scenarios.md). The files are embedded, so the tests, riptide-sim,
// riptide-bench and the root benchmarks all run the same definitions from
// any working directory.
package scenarios

import (
	"embed"
	"fmt"
	"io/fs"
	"strings"

	"riptide/internal/scenario"
)

//go:embed *.yaml
var files embed.FS

// Names lists the library's scenarios — file names without ".yaml" — sorted.
func Names() []string {
	paths, err := fs.Glob(files, "*.yaml")
	if err != nil {
		panic(err) // the pattern is a constant
	}
	for i, p := range paths {
		paths[i] = strings.TrimSuffix(p, ".yaml")
	}
	return paths
}

// Source returns the named scenario's YAML.
func Source(name string) ([]byte, error) {
	src, err := files.ReadFile(name + ".yaml")
	if err != nil {
		return nil, fmt.Errorf("scenarios: no scenario %q (valid: %s)", name, strings.Join(Names(), " "))
	}
	return src, nil
}

// Load parses the named scenario.
func Load(name string) (*scenario.Spec, error) {
	src, err := Source(name)
	if err != nil {
		return nil, err
	}
	sp, err := scenario.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("scenarios/%s.yaml: %w", name, err)
	}
	return sp, nil
}
