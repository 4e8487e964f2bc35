# Riptide reproduction build targets. Everything is stdlib Go; no tools
# beyond the Go toolchain are required.

GO ?= go
# The repository root, so `make -f <path>/Makefile <target>` works from any
# directory: the targets that run the module's commands go through `go -C`.
ROOT := $(dir $(abspath $(lastword $(MAKEFILE_LIST))))

.PHONY: all check build vet test test-short test-race race bench bench-serve report report-check fuzz-guard fuzz-gossip fuzz-netlink fuzz-scenario scenarios clean

all: check

# Default gate: compile, vet, full test suite, and a race pass over the
# packages with real concurrency (the agent, the netlink backend, the fleet
# wire, and the daemon that runs them together).
check: build vet test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./internal/core/... ./internal/guard/... ./internal/netlink/... ./internal/fleet/... ./internal/gossip/... ./internal/daemon/... ./cmd/riptided/...

race:
	$(GO) test -race ./internal/core ./internal/kernel .

bench:
	$(GO) test -bench=. -benchmem ./...

# The fleet-serving benchmarks alone: what one sync GET costs the serving
# agent — a converged peer's 304 (BenchmarkServeNotModified), the cached full
# table (hit) vs churning (rebuild per request), a churn round's ?since= pull
# (BenchmarkServeDeltaSince) and that round end to end (BenchmarkPullDeltaRound)
# — and the delta codec both ends of that pull run.
bench-serve:
	$(GO) test -bench 'BenchmarkServe|BenchmarkPullDeltaRound' -benchmem -run '^$$' ./internal/fleet/
	$(GO) test -bench 'Benchmark(Append|Decode)Delta' -benchmem -run '^$$' ./internal/gossip/

# The markdown report + plottable series CSVs, as committed under docs/. The
# cluster figures and every operational section come from the scenario
# library embedded in the binary, so no path depends on the caller's working
# directory.
report:
	$(GO) -C $(ROOT) run ./cmd/riptide-bench -o docs/REPORT.md -series-dir docs/series

# Regenerate the report into a temporary directory and require it to match
# the committed docs/REPORT.md and docs/series/*.csv byte for byte (the same
# CSV files, each with the same bytes).
report-check:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && cd $(ROOT) && \
	$(GO) run ./cmd/riptide-bench -o "$$tmp/REPORT.md" -series-dir "$$tmp/series" && \
	cmp "$$tmp/REPORT.md" docs/REPORT.md && \
	test "$$(ls "$$tmp/series")" = "$$(ls docs/series)" && \
	for f in docs/series/*.csv; do cmp "$$tmp/series/$${f##*/}" "$$f" || exit 1; done

# Fuzz the governor's telemetry intake: arbitrary (including adversarial)
# counter values must never panic it or corrupt its state invariants.
fuzz-guard:
	$(GO) test -fuzz=FuzzGovernorObserve -fuzztime=30s ./internal/guard

# Fuzz the gossip wire decoders: arbitrary delta payloads (the bytes a fleet
# peer hands us) must never panic. The binary delta wire is canonical, so
# whatever FuzzDecodeDelta's decoder accepts must re-encode to the same bytes,
# and its merge-form sink must hold ToCore of the wire entries.
# FuzzDecodeDigest covers the retired digest decoder, which stays only while
# bench/rig.go names it.
fuzz-gossip:
	$(GO) test -fuzz=FuzzDecodeDigest -fuzztime=30s ./internal/gossip
	$(GO) test -fuzz=FuzzDecodeDelta -fuzztime=30s ./internal/gossip

# Fuzz the netlink wire decoders: raw sock_diag and rtnetlink byte streams
# (truncated headers, lying lengths, corrupt nested metrics) must never
# panic or yield structurally invalid observations/routes.
fuzz-netlink:
	$(GO) test -fuzz=FuzzParseInetDiagMsg -fuzztime=30s ./internal/netlink
	$(GO) test -fuzz=FuzzParseRouteMsg -fuzztime=30s ./internal/netlink

# Fuzz the scenario engine: the YAML-subset decoder and the schema layer
# must never panic, and whatever they accept must round-trip.
fuzz-scenario:
	$(GO) test -fuzz=FuzzDecodeYAML -fuzztime=30s ./internal/scenario
	$(GO) test -fuzz=FuzzParseScenario -fuzztime=30s ./internal/scenario

# Validate every file of the committed scenario library, then execute the
# operational ones through the CLI twice: the two JSON reports must be
# byte-identical (`go test ./scenarios` asserts the same files from the
# embed). The paper's full-scale files (paper-*.yaml) execute in
# report-check, which fails on a failed assertion and on any moved byte.
scenarios:
	cd $(ROOT) && $(GO) run ./cmd/riptide-sim validate scenarios/*.yaml
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && cd $(ROOT) && \
	ops=$$(ls scenarios/*.yaml | grep -v '^scenarios/paper-') && \
	$(GO) build -o "$$tmp/riptide-sim" ./cmd/riptide-sim && \
	"$$tmp/riptide-sim" run $$ops > "$$tmp/first.json" && \
	"$$tmp/riptide-sim" run $$ops > "$$tmp/second.json" && \
	cmp "$$tmp/first.json" "$$tmp/second.json"

clean:
	$(GO) clean ./...
