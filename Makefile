GO ?= go
GOFMT ?= gofmt

.PHONY: ci fmt vet build test race test-fleet-race test-alert-race test-jobs-race test-trace-race test-rp-race test-gpu-race bench-obs bench-host

# The full local CI gate: what a PR must pass for correctness. The
# performance gate is the pipeline's perfbench run (BENCHMARK.json,
# perfbench/README.md), which compares parent and change on every PR.
ci: fmt vet build race test-fleet-race test-alert-race test-jobs-race test-trace-race test-rp-race test-gpu-race bench-obs bench-host

# Formatting gate: fail (and list the offenders) if any file needs gofmt.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection paths are concurrency-heavy: race-check the fleet
# package, repeat the placement-independence test (its point is that
# worker interleavings never change grids), repeat its chaos sub-test
# 50 times (~0.1 s each) so a failure trigger that depends on goroutine
# timing cannot return unseen, and run a short scripted-failure chaos
# pass on every PR.
test-fleet-race:
	$(GO) test -race -count=1 ./internal/fleet/...
	$(GO) test -race -count=3 -run TestFleetBandStateIndependentOfPlacement ./internal/fleet/
	$(GO) test -count=50 -run 'TestFleetBandStateIndependentOfPlacement/predictive/chaos' ./internal/fleet/
	$(GO) run ./cmd/beamsim -n 5000 -grid 32 -steps 2 -kernel twophase \
		-devices 4 -inject "fail:dev=1,step=10,after=1"

# Incident-layer race gate: the alert engine, the flight ring (the
# obs.MemorySink beamsim chains in front of its trace file), the bundle
# writer and the export server are all crossed by concurrent goroutines
# (watchdogs, scrapers, the step loop), so race-check them directly, then
# run a scripted-chaos pass with alerting and post-mortem dumping enabled
# and triage the resulting bundle with obstool — the full incident chain,
# end to end, on every PR.
test-alert-race:
	$(GO) test -race -count=1 ./internal/obs/...
	rm -rf /tmp/beamdyn_pm
	$(GO) run ./cmd/beamsim -n 5000 -grid 32 -steps 4 -kernel twophase \
		-devices 2 -inject "fail:dev=1,step=9" \
		-alerts "device_failed:for=1;steptime:mad=8" \
		-flight-depth 1024 -postmortem-dir /tmp/beamdyn_pm
	$(GO) run ./cmd/obstool postmortem /tmp/beamdyn_pm/postmortem-00-*

# Control-plane gate: race-check the jobs package (queue hammering, the
# checkpoint/resume chaos test, SSE streaming), then run the scenario
# catalog through a real oneshot server with tracing on and read the
# resulting server trace back with obstool summary.
test-jobs-race:
	$(GO) test -race -count=1 ./internal/jobs/...
	$(GO) run ./cmd/beamsim serve -http "" -oneshot \
		-trace /tmp/jobs_gate_trace.jsonl \
		-submit examples/scenarios/smooth-gaussian.json,examples/scenarios/halo-dominated.json,examples/scenarios/bunch-compression.json
	$(GO) run ./cmd/obstool summary /tmp/jobs_gate_trace.jsonl

# Distributed-tracing gate: race-check the span-context paths (concurrent
# scoped tracers hammering one tracer's ID counters and sink), then run a
# two-job oneshot serve with tracing on under the race detector and
# reconstruct each job's causal tree with obstool — the context-propagation
# chain (submit -> queue-wait -> run -> step -> kernels/fleet) end to end.
test-trace-race:
	$(GO) test -race -count=1 -run 'Trace|Scope|Span|Tree|Exemplar' \
		./internal/obs/... ./internal/jobs/...
	$(GO) run -race ./cmd/beamsim serve -http "" -oneshot \
		-node ci -trace /tmp/trace_gate.jsonl \
		-submit examples/scenarios/smooth-gaussian.json,examples/scenarios/halo-dominated.json
	$(GO) run ./cmd/obstool tree /tmp/trace_gate.jsonl

# Telemetry-overhead check: the disabled path must stay within 5% of the
# uninstrumented kernel step, and the full incident layer (flight ring
# + default alert rules + invariant gauges) within 5% of the bare
# simulation step (compare the Benchmark lines by hand, or with benchstat
# when available).
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkObs' -benchtime 5x ./internal/kernels
	$(GO) test -run '^$$' -bench 'BenchmarkObs' -benchtime 5x ./internal/core

# Host-phase microbenchmark: predict/cluster/train ns per step and
# allocations per step, per worker count (see internal/hostpar).
bench-host:
	$(GO) test -run '^$$' -bench 'BenchmarkPredictiveHostPhases' -benchtime 3x \
		-benchmem ./internal/kernels

# Streaming replay engine race gate: the device fans SMs out as
# goroutines with per-SM scratch, and the engine A/B matrices in gpusim,
# kernels and fleet drive both engines across every interleaving-sensitive
# path (resident windows, work stealing, multi-device fan-out).
# UnchangedByEvaluator replays the evaluator's stencil runs against the
# closure's single loads on the same per-SM scratch.
test-gpu-race:
	$(GO) test -race -count=1 ./internal/gpusim/...
	$(GO) test -race -count=1 -run 'Engine|UnchangedByEvaluator' ./internal/kernels/... ./internal/fleet/...

# Tiled-dispatch race gate: the cache-blocked GridSolver fans tiles out
# across the hostpar pool with per-worker evaluators and shared target
# writes, so race-check the whole retard package (the A/B and determinism
# tests drive the tiled path at several worker counts) on every PR.
test-rp-race:
	$(GO) test -race -count=1 ./internal/retard/...
