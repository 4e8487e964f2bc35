# Riptide reproduction build targets. Everything is stdlib Go; no tools
# beyond the Go toolchain are required.

GO ?= go
# The repository root, so `make -f <path>/Makefile <target>` works from any
# directory: the targets that run the module's commands go through `go -C`.
ROOT := $(dir $(abspath $(lastword $(MAKEFILE_LIST))))

.PHONY: all check build vet test test-short test-race race bench bench-serve report report-full fuzz fuzz-guard fuzz-gossip fuzz-netlink fuzz-scenario scenarios examples clean

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

# Quick-scale markdown report to stdout. The operational sections come from
# the scenario library embedded in the binary, so no path depends on the
# caller's working directory.
report:
	$(GO) -C $(ROOT) run ./cmd/riptide-bench -scale quick

# Full-scale report + plottable series CSVs, as committed under docs/.
report-full:
	$(GO) -C $(ROOT) run ./cmd/riptide-bench -scale full -o docs/REPORT.md -series-dir docs/series

fuzz:
	$(GO) test -fuzz=FuzzReadProbes -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzReadCwndSamples -fuzztime=30s ./internal/trace

# Fuzz the governor's telemetry intake: arbitrary (including adversarial)
# counter values must never panic it or corrupt its state invariants.
fuzz-guard:
	$(GO) test -fuzz=FuzzGovernorObserve -fuzztime=30s ./internal/guard

# Fuzz the gossip wire decoders: arbitrary delta payloads (the bytes a fleet
# peer hands us) must never panic, and whatever decodes must re-encode to an
# equivalent message. FuzzDecodeDelta is also the differential for the delta
# scanner: what it accepts, json.Unmarshal decodes identically.
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

# Validate and execute every file of the committed scenario library through
# the CLI (the same files `go test ./scenarios` asserts from the embed), twice:
# the two JSON reports must be byte-identical.
scenarios:
	cd $(ROOT) && $(GO) run ./cmd/riptide-sim validate scenarios/*.yaml
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && cd $(ROOT) && \
	$(GO) build -o "$$tmp/riptide-sim" ./cmd/riptide-sim && \
	"$$tmp/riptide-sim" run scenarios/*.yaml > "$$tmp/first.json" && \
	"$$tmp/riptide-sim" run scenarios/*.yaml > "$$tmp/second.json" && \
	cmp "$$tmp/first.json" "$$tmp/second.json"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cdnprobes
	$(GO) run ./examples/trafficshift
	$(GO) run ./examples/loadbalancer

clean:
	$(GO) clean ./...
