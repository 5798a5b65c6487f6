GO ?= go
GOFMT ?= gofmt

.PHONY: all build test vet race ci fuzz bench clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The full race pass needs an explicit timeout: the root package's suite
# (goldens, determinism cross products, resumed and forked sweeps) runs
# well past go test's default 10m per-package budget under the race
# detector on small machines.
race:
	$(GO) test -race -timeout 30m ./...

# ci is the gate: every Go file is gofmt-clean (perfbench's build tree
# under .bench_build/ is skipped), everything compiles, vets clean
# (perfbench/ is its own module, which `./...` never reaches, so it is
# vetted separately: an API change it depends on fails here, not only
# when the benchmark builds), perfbench's traced runs on baseline16 and
# saturate64 pass every check (their counters read the routers', ports'
# and links' own counters through a telemetry probe, so a probe bound to
# the wrong counters reads zero switch moves and fails the
# delivered-flits check there; saturate64 is the congested workload,
# where a third of the switch requests lose, so a stall classification
# that perturbs arbitration breaks its traced run's fingerprint against
# the untraced reference), passes under the race detector (which includes the cross-shard
# determinism suite exercising the lockstep worker pool), and the
# hot-path benchmarks stay within 50% of the committed BENCH_cycles.json
# snapshot with no new allocations.
# The loose margin absorbs machine-to-machine noise on a short benchtime;
# `make bench` is the precise record. The telemetry layer, the health
# detectors and the one sampler that runs them, the live observability
# service (HTTP endpoints), the flight recorder, the per-flow latency
# observatory, and their CLI glue are vetted and race-tested explicitly
# so a future build-tag or test-cache quirk can't silently drop them from
# the sweep, and the serve
# smoke test drives a real nocsim -serve binary end to end (ephemeral
# port announced on stderr, /metrics parses, /healthz 200, clean exit).
# The flight-recorder post-mortem smoke does the same for the black-box
# path: a real nocsim wedges itself under the deliberate-deadlock fault
# campaign with -flightrec on, the detector fire dumps the ring with no
# operator involvement, and a real nocpost binary's verdict must recompute
# the same root cause and attribution the live detectors recorded. The
# SLO burn smoke drives the same path for the per-flow observatory: a
# real nocsim saturates a hotspot under -flows/-slo, /healthz must burn
# with the offending flow, dominant stall cause, and path links named,
# the burn must leave a flight-recorder dump, and nocpost's verdict on
# that dump must replay the transition; the reconciliation and
# checkpoint suites hold the per-flow decomposition exact and
# byte-stable across shard counts and resume.
# The benchjson gate covers the ServeOff/On pair so the serve-off loop
# keeps its zero-allocation fast path (bytes/op gates too on Serve rows),
# the FlightRecOff/On pair so a build without -flightrec keeps the
# 0 allocs/op hot path and the recorder itself stays ring-append cheap
# (FlightRec rows gate bytes/op too), the LatencyObsOff/On pair so a
# run without -flows keeps the 0 allocs/op hot path and the per-flow
# observatory's classify-and-histogram step stays allocation-free
# (LatencyObs rows gate bytes/op too), and the 4096-tile pair
# (NetworkCycle4096/NetworkCycleIdle4096) so the
# quiescence-gated big-die cycle loop keeps its speed and 0 allocs/op —
# each 4096 benchmark spends a few seconds building and warming the
# 64x64 torus before timing starts. The checkpoint/restore stack is
# gated twice: the resumed-golden suites replay the pinned experiments
# through a mid-run snapshot + rebuild + restore at several shard counts
# and must stay byte-identical to the straight-through goldens, and the
# crash-resume smoke SIGKILLs a real nocsim mid-campaign, tears the
# newest checkpoint file, and diffs the resumed run's report and metrics
# CSV against an uninterrupted reference; the resumed golden sweep also
# interrupts every sweep point at each shard count (its line is the
# 'TestResumedGolden' pattern), and a probe carried through the in-memory
# resume must write the straight run's metrics CSV
# (TestResumedProbeMatchesStraightRun). Lifecycle tracing stages its
# events per shard, so several workers write the stages every cycle: the
# sharded trace test (TestShardedTelemetryCSV, a small 4x4 torus per shard
# count) gets its own line under the race detector at -count=10. On the
# flight-recorder line, a
# recorder and sampler attached before a restore must record and sample
# what the straight run does after it (TestFlightRecRebaseAfterRestore).
# The campaign engine is gated the same two ways: the replication
# determinism suite (replica 0 byte-matches a
# plain run and the golden sweep, replicas forked into freshly built
# networks agree across shard counts, and a repeated run
# byte-matches the first) runs under the race detector, and the campaign
# benchmarks ride the benchjson gate — NetworkBuild4096 gates the
# allocs/op of the build every run, replica and resume pays, and the
# SweepThroughput pair gates points/sec downward so the warm-fork
# amortization can't silently rot.
ci:
	@out=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs $(GOFMT) -l); \
	  if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@for w in baseline16 saturate64; do \
	  out=$$(python3 perfbench/run.py --workload $$w --seed 3 --seconds 1 --trace 1 | tail -n 1); \
	  case "$$out" in *'"correct":true'*'"failed":0,'*) ;; \
	  *) echo "perfbench traced run on $$w failed: $$out"; exit 1;; esac; \
	done
	$(GO) vet ./internal/telemetry ./internal/telemetry/health ./internal/telemetry/sampler ./internal/telemetry/serve ./internal/telemetry/flightrec ./internal/telemetry/latency ./cmd/internal/obs
	$(GO) test -race ./internal/telemetry ./internal/telemetry/health ./internal/telemetry/sampler ./internal/telemetry/serve ./internal/telemetry/flightrec ./internal/telemetry/latency ./cmd/internal/obs
	$(GO) test -race ./internal/checkpoint ./internal/network ./internal/core
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -run 'TestServeSmoke' .
	$(GO) test -race -run 'TestSLOBurnSmoke|TestSLOFlagValidation|TestFlowLatencyReconciliation|TestFlowLatencyCheckpointRoundTrip' .
	$(GO) test -race -run 'TestResumedGolden|TestResumedProbeMatchesStraightRun|TestCrashResume' .
	$(GO) test -race -count=10 -run '^TestShardedTelemetryCSV$$' .
	$(GO) test -race -run 'TestFlightRecSmoke|TestFlightRecReconstructionExact|TestFlightRecRebaseAfterRestore' .
	$(GO) test -race -run 'TestForkedGoldenSweep|TestReplicatedRunDeterminism|TestReplicatedSweepMatchesRuns|TestRepeatedRunDeterminism' .
	{ $(GO) test -run '^$$' -bench 'NetworkCycle$$|NetworkCycleServeOff$$|NetworkCycleServeOn$$|NetworkCycleFlightRecOff$$|NetworkCycleFlightRecOn$$|NetworkCycleLatencyObsOff$$|NetworkCycleLatencyObsOn$$|NetworkCycle64$$|NetworkCycle4096$$|NetworkCycleIdle4096$$|RouteCompute' -benchtime 200ms -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'NetworkBuild4096$$' -benchtime 20x -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'SweepThroughput' -benchtime 1x . ; } \
		| $(GO) run ./cmd/benchjson -against BENCH_cycles.json -max-regress 50

# fuzz gives the fault-campaign parser, the checkpoint decoder, the
# offset-keyed route table (checked against route.Compute), the
# flight-recorder dump spec parser, the flight-recorder dump parser, the
# trace-file parser, the -slo objective parser, the strict Prometheus
# text scraper, router restore (fuzzed section bytes must fail to
# decode or leave a router that survives a cycle with its invariants
# intact) and link restore (fuzzed section bytes must fail to decode or
# leave a link that delivers only valid VCs, goes idle and carries new
# traffic) a short randomized budget each (go test accepts one -fuzz
# target per invocation, hence one line each); the corpus seeds in the
# fuzz_test.go files always run under plain test. FuzzParseDump's seed is a real dump
# carrying a ~165 KB keyframe, so its minimizer is capped at 50 runs per
# input: the default 60 s per input would spend the whole budget there.
# FuzzRouterRestore's seed is a real mid-run router payload and gets the
# same cap for the same reason.
fuzz:
	$(GO) test ./internal/fault -run='^$$' -fuzz=FuzzFaultPlan -fuzztime=10s
	$(GO) test ./internal/checkpoint -run='^$$' -fuzz=FuzzParse -fuzztime=10s
	$(GO) test ./internal/route -run='^$$' -fuzz='^FuzzTable$$' -fuzztime=10s
	$(GO) test ./internal/core -run='^$$' -fuzz='^FuzzParseSpec$$' -fuzztime=10s
	$(GO) test ./internal/telemetry/flightrec -run='^$$' -fuzz='^FuzzParseDump$$' -fuzztime=10s -fuzzminimizetime=50x
	$(GO) test ./internal/traffic -run='^$$' -fuzz='^FuzzParseTrace$$' -fuzztime=10s
	$(GO) test ./internal/telemetry/latency -run='^$$' -fuzz='^FuzzParseSLO$$' -fuzztime=10s
	$(GO) test ./internal/telemetry/serve -run='^$$' -fuzz='^FuzzParseText$$' -fuzztime=10s
	$(GO) test ./internal/router -run='^$$' -fuzz='^FuzzRouterRestore$$' -fuzztime=10s -fuzzminimizetime=50x
	$(GO) test ./internal/link -run='^$$' -fuzz='^FuzzLinkRestore$$' -fuzztime=10s

# bench is the regression harness: the cycle-loop microbenchmarks run
# long enough for stable ns/op and allocs/op, the E-suite benchmarks run
# once each, and cmd/benchjson folds everything into BENCH_cycles.json
# (simulated cycles/sec, allocs/op) for diffing across commits. The
# NetworkCycle pattern also matches NetworkCycleProbesOff/ProbesOn (the
# telemetry-overhead pair), NetworkCycleServeOff/ServeOn (the live
# observability pair: health sampler plus snapshot collector),
# NetworkCycleFlightRecOff/FlightRecOn (the flight-recorder pair: health
# sampler plus ring phase), the 64x64-die pair
# NetworkCycle4096/NetworkCycleIdle4096, and the NetworkCycle64Shards{2,4,8}
# lockstep worker-pool runs; the shard benchmarks are recorded at
# GOMAXPROCS=1 (barrier overhead, no speedup possible) and GOMAXPROCS=8
# (the parallel case), keyed by the -procs suffix benchjson parses into
# each row. The campaign-engine rows record
# the sweep machinery: NetworkBuild4096 (the 4096-tile build every run
# pays) and the SweepThroughput warm/cold pair whose points/sec ratio is
# the warm-fork amortization factor. The final step re-runs the
# 4096-tile benchmark under the CPU profiler so every refresh leaves a
# bench_cycle4096.prof artifact (`go tool pprof bench_cycle4096.prof`)
# beside the JSON for digging into cycle-loop regressions.
bench:
	{ GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'NetworkCycle|RouteCompute|ECCRoundTrip|PacketSegmentation' -benchtime 1s -benchmem . ; \
	  GOMAXPROCS=8 $(GO) test -run '^$$' -bench 'NetworkCycle64' -benchtime 1s -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'NetworkBuild4096$$' -benchtime 50x -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'SweepThroughput' -benchtime 1x . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkE[0-9]' -benchtime 1x -benchmem . ; } | $(GO) run ./cmd/benchjson -o BENCH_cycles.json
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'NetworkCycle4096$$' -benchtime 200ms -cpuprofile bench_cycle4096.prof .

clean:
	$(GO) clean ./...
	rm -f bench_cycle4096.prof
