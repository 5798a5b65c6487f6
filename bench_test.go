package noc

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/network"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/latency"
	"repro/internal/telemetry/sampler"
	"repro/internal/telemetry/serve"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// One benchmark per experiment row in DESIGN.md. Each iteration regenerates
// the experiment's table in quick mode; run `go test -bench E3 -v` to see a
// single experiment, or cmd/nocbench for the full paper-vs-measured report.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := core.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(true, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkE1Baseline(b *testing.B)         { benchExperiment(b, "E1") }
func BenchmarkE2Area(b *testing.B)             { benchExperiment(b, "E2") }
func BenchmarkE3Power(b *testing.B)            { benchExperiment(b, "E3") }
func BenchmarkE4LoadLatency(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5FlowControl(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6Circuits(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7LogicalWire(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8Reservation(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9DutyFactor(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Partition(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11Fault(b *testing.B)           { benchExperiment(b, "E11") }
func BenchmarkE12Bus(b *testing.B)             { benchExperiment(b, "E12") }
func BenchmarkE13Serdes(b *testing.B)          { benchExperiment(b, "E13") }
func BenchmarkE14Interface(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkE15Registers(b *testing.B)       { benchExperiment(b, "E15") }
func BenchmarkE16TimingClosure(b *testing.B)   { benchExperiment(b, "E16") }
func BenchmarkE17Compaction(b *testing.B)      { benchExperiment(b, "E17") }
func BenchmarkE18TopologyScaling(b *testing.B) { benchExperiment(b, "E18") }
func BenchmarkE19Adaptive(b *testing.B)        { benchExperiment(b, "E19") }
func BenchmarkE20Chaos(b *testing.B)           { benchExperiment(b, "E20") }

// Simulator microbenchmarks: the cost of the cycle loop itself. Each
// names Shards: 1, the sequential loop BENCH_cycles.json records (the
// zero value runs the same loop).

// BenchmarkNetworkCycle measures simulated cycles per second on the
// paper's 16-tile baseline under 30% uniform load.
func BenchmarkNetworkCycle(b *testing.B) {
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 1, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.3, 2, flit.VCMask(0xFF), 1))
	}
	// Warm the flit pool and buffers so the loop measures the steady
	// state; allocs/op should then be ~0 (see TestCycleLoopAllocFree).
	n.Run(2000)
	b.ReportAllocs()
	b.ResetTimer()
	n.Run(int64(b.N))
}

// BenchmarkNetworkCycleProbesOff and BenchmarkNetworkCycleProbesOn bound
// the telemetry overhead: the Off/On pair runs the exact baseline loop
// with no probe vs. a counters-only probe attached, so their delta is the
// cost of the always-on hook sites plus the counter increments. Both fold
// into BENCH_cycles.json via `make bench`.
func BenchmarkNetworkCycleProbesOff(b *testing.B) { benchCycleProbes(b, nil) }

func BenchmarkNetworkCycleProbesOn(b *testing.B) {
	benchCycleProbes(b, telemetry.New(telemetry.Config{}))
}

func benchCycleProbes(b *testing.B, probe *telemetry.Probe) {
	b.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 1, Shards: 1, Probe: probe})
	if err != nil {
		b.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.3, 2, flit.VCMask(0xFF), 1))
	}
	n.Run(2000)
	b.ReportAllocs()
	b.ResetTimer()
	n.Run(int64(b.N))
}

// BenchmarkNetworkCycleServeOff and BenchmarkNetworkCycleServeOn bound
// the live observability overhead the same way the Probes pair bounds the
// counter fabric: the identical baseline loop with a telemetry probe, with
// and without the health sampler and the serve collector subscribed to it
// attached. Off must stay
// on the 0 allocs/cycle fast path; On amortizes one snapshot allocation
// per sampling window. Both fold into BENCH_cycles.json via `make bench`.
func BenchmarkNetworkCycleServeOff(b *testing.B) { benchCycleServe(b, false) }

func BenchmarkNetworkCycleServeOn(b *testing.B) { benchCycleServe(b, true) }

func benchCycleServe(b *testing.B, serveOn bool) {
	b.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	n, err := network.New(network.Config{
		Topo: topo, Router: router.DefaultConfig(0), Seed: 1, Shards: 1,
		Probe: telemetry.New(telemetry.Config{}),
	})
	if err != nil {
		b.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.3, 2, flit.VCMask(0xFF), 1))
	}
	if serveOn {
		smp, err := sampler.Attach(n, sampler.Config{})
		if err != nil {
			b.Fatal(err)
		}
		serve.AttachCollector(smp, serve.Config{})
	}
	n.Run(2000)
	b.ReportAllocs()
	b.ResetTimer()
	n.Run(int64(b.N))
}

// BenchmarkNetworkCycleFlightRecOff and BenchmarkNetworkCycleFlightRecOn
// bound the flight-recorder overhead: the identical baseline loop with a
// telemetry probe, with and without the health sampler and the recorder's
// serial ring phase attached. Off must stay on the 0 allocs/cycle fast path; On appends one
// fixed-size delta record per cycle into the preallocated ring and takes a
// keyframe every Window/2 cycles, so its steady state is also
// allocation-free outside the keyframe cadence. Both fold into
// BENCH_cycles.json via `make bench`.
func BenchmarkNetworkCycleFlightRecOff(b *testing.B) { benchCycleFlightRec(b, false) }

func BenchmarkNetworkCycleFlightRecOn(b *testing.B) { benchCycleFlightRec(b, true) }

func benchCycleFlightRec(b *testing.B, recOn bool) {
	b.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	n, err := network.New(network.Config{
		Topo: topo, Router: router.DefaultConfig(0), Seed: 1, Shards: 1,
		Probe: telemetry.New(telemetry.Config{}),
	})
	if err != nil {
		b.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.3, 2, flit.VCMask(0xFF), 1))
	}
	if recOn {
		smp, err := sampler.Attach(n, sampler.Config{})
		if err != nil {
			b.Fatal(err)
		}
		flightrec.Attach(smp, flightrec.Config{Dir: b.TempDir()})
	}
	n.Run(2000)
	b.ReportAllocs()
	b.ResetTimer()
	n.Run(int64(b.N))
}

// BenchmarkNetworkCycleLatencyObsOff and BenchmarkNetworkCycleLatencyObsOn
// bound the per-flow latency observatory's overhead: the identical baseline
// loop with and without the observatory (pair flows, one SLO) attached. Off
// must stay on the 0 allocs/cycle fast path — the delivery hook is a nil
// check when no observer is set. On classifies every delivered packet into
// its per-flow log2 histogram and runs the SLO burn tick every 256 cycles,
// all against preallocated state, so its steady state is allocation-free
// too. Both fold into BENCH_cycles.json via `make bench`.
func BenchmarkNetworkCycleLatencyObsOff(b *testing.B) { benchCycleLatencyObs(b, false) }

func BenchmarkNetworkCycleLatencyObsOn(b *testing.B) { benchCycleLatencyObs(b, true) }

func benchCycleLatencyObs(b *testing.B, obsOn bool) {
	b.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 1, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.3, 2, flit.VCMask(0xFF), 1))
	}
	if obsOn {
		if _, err := latency.Attach(n, latency.Config{Flows: latency.FlowPair, SLO: "p99<=200"}); err != nil {
			b.Fatal(err)
		}
	}
	n.Run(2000)
	b.ReportAllocs()
	b.ResetTimer()
	n.Run(int64(b.N))
}

// BenchmarkNetworkCycle4096 measures the cycle loop on a 64x64 (4096-tile)
// torus under a light 1% locality-bounded load — the regime the
// quiescence-gated scan is for: most routers and links are idle on any
// given cycle, so the per-cycle cost tracks the active worklists, not the
// tile count.
func BenchmarkNetworkCycle4096(b *testing.B) { benchCycle4096(b, false) }

// BenchmarkNetworkCycleIdle4096 is the same 4096-tile torus with traffic
// sources on only the first 64 tiles: the other 98% of the die is idle,
// and the gate asserting idle-region cost stays O(active routers) is
// TestIdleRegionCost.
func BenchmarkNetworkCycleIdle4096(b *testing.B) { benchCycle4096(b, true) }

func benchCycle4096(b *testing.B, idle bool) {
	b.Helper()
	n := build4096(b, idle, 0)
	b.ReportAllocs()
	b.ResetTimer()
	n.Run(int64(b.N))
}

// BenchmarkFork measures Fork on the 64x64 torus at 1% load: restoring a
// snapshot taken at cycle 2,000 or 20,000 into a freshly built network
// (the build is not timed). Every random stream restores from its saved
// state, so the cost follows the image, not the cycles simulated before
// the snapshot.
func BenchmarkFork(b *testing.B) {
	for _, at := range []int64{2000, 20000} {
		b.Run(fmt.Sprintf("cycle%dk", at/1000), func(b *testing.B) {
			img := forkImage(b, at)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n := buildFork4096(b)
				b.StartTimer()
				if err := n.Fork(img, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// forkImages caches BenchmarkFork's snapshots by cycle: the benchmark
// function runs once per b.N probe, and reaching cycle 20,000 takes
// seconds.
var forkImages = map[int64][]byte{}

func forkImage(b *testing.B, at int64) []byte {
	if img, ok := forkImages[at]; ok {
		return img
	}
	n := buildFork4096(b)
	n.Run(at)
	img, err := n.Snapshot(0)
	if err != nil {
		b.Fatal(err)
	}
	forkImages[at] = img
	return img
}

// buildFork4096 builds the 64x64 torus with a 1% locality-bounded
// generator on every tile, unrun.
func buildFork4096(b testing.TB) *network.Network {
	topo, err := topology.NewFoldedTorus(64, 64)
	if err != nil {
		b.Fatal(err)
	}
	n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 1, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	pat := localWindow{k: 64, window: 8}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, traffic.NewGenerator(tile, pat, cycle4096Rate, 2, flit.VCMask(0xFF), 1))
	}
	return n
}

// localWindow picks a uniform destination within ±window tiles of the
// source in each torus dimension (wrapping, source excluded); rowOnly
// keeps the destination on the source's row. The 4096-tile benchmarks
// use it instead of Uniform: route words pack 2 bits per hop into a
// uint64 (32 hops max), and on a 64x64 torus a uniform destination can
// sit up to 64 minimal hops away — besides being unroutable,
// die-spanning random traffic is not the on-chip locality regime these
// benchmarks model.
type localWindow struct {
	k, window int
	rowOnly   bool
}

func (l localWindow) Name() string { return "local" }

func (l localWindow) Pick(src int, rng *sim.Stream) int {
	span := 2*l.window + 1
	for {
		dx := rng.IntN(span) - l.window
		dy := 0
		if !l.rowOnly {
			dy = rng.IntN(span) - l.window
		}
		if dx == 0 && dy == 0 {
			continue
		}
		x := (src%l.k + dx + l.k) % l.k
		y := (src/l.k + dy + l.k) % l.k
		return y*l.k + x
	}
}

// build4096 builds and warms the 64x64 torus at 1% load, with sources on
// every tile or (idle) on the first row only, and the credit watchdog
// armed at the given threshold (0 = off).
func build4096(b testing.TB, idle bool, watchdog int) *network.Network {
	topo, err := topology.NewFoldedTorus(64, 64)
	if err != nil {
		b.Fatal(err)
	}
	n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 1, Shards: 1, Watchdog: watchdog})
	if err != nil {
		b.Fatal(err)
	}
	gens := topo.NumTiles()
	pat := localWindow{k: 64, window: 8}
	if idle {
		// Sources (and, row-local, destinations) on the first row only:
		// the other 63 rows of the die stay completely idle, and every
		// delivery lands on a tile whose client drains it.
		gens = 64
		pat.rowOnly = true
	}
	gg := make([]*traffic.Generator, gens)
	for tile := 0; tile < gens; tile++ {
		gg[tile] = traffic.NewGenerator(tile, pat, 4*cycle4096Rate, 2, flit.VCMask(0xFF), 1)
		n.AttachClient(tile, gg[tile])
	}
	// Warm every pool's high-water mark past anything the measured load
	// can reach: run at 4x the benchmark rate first (more flits in
	// flight, deeper per-port delivery and reassembly bursts), then
	// settle at the real rate. Without the overdrive, rare record-setting
	// events — a new max of in-flight flits, a port's first triple
	// delivery — keep allocating at a slowly decaying rate for hundreds
	// of thousands of cycles, and short timing windows catch them.
	n.Run(2000)
	for _, g := range gg {
		g.Rate = cycle4096Rate
	}
	n.Run(2000)
	return n
}

// cycle4096Rate is the offered load of the 4096-tile benchmarks: light
// (1%) on purpose — the quiescence-gated regime.
const cycle4096Rate = 0.01

// BenchmarkNetworkCycle64 is the same loop on an 8x8 torus.
func BenchmarkNetworkCycle64(b *testing.B) { benchCycle64(b, 1) }

// BenchmarkNetworkCycle64Shards{2,4,8} run the identical 8x8 workload with
// the cycle loop sharded across the lockstep worker pool. The results are
// byte-identical to the sequential loop (see determinism_test.go); only
// the wall clock may differ. Speedup requires real cores: run with
// GOMAXPROCS >= the shard count (`make bench` records both GOMAXPROCS=1
// and GOMAXPROCS=8 rows). With fewer cores than shards the barriers make
// these strictly slower than the sequential loop — that cost is recorded,
// not hidden.
func BenchmarkNetworkCycle64Shards2(b *testing.B) { benchCycle64(b, 2) }
func BenchmarkNetworkCycle64Shards4(b *testing.B) { benchCycle64(b, 4) }
func BenchmarkNetworkCycle64Shards8(b *testing.B) { benchCycle64(b, 8) }

func benchCycle64(b *testing.B, shards int) {
	b.Helper()
	topo, err := topology.NewFoldedTorus(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 1, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	if n.Shards() != shards {
		b.Fatalf("network runs %d shards, want %d", n.Shards(), shards)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, traffic.NewGenerator(tile, traffic.Uniform{Tiles: 64}, 0.3, 2, flit.VCMask(0xFF), 1))
	}
	n.Run(2000)
	b.ReportAllocs()
	b.ResetTimer()
	n.Run(int64(b.N))
}

// BenchmarkRouteCompute measures the source-route encoder (the paper's
// client-local destination-to-route translation).
func BenchmarkRouteCompute(b *testing.B) {
	topo, err := topology.NewFoldedTorus(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % 64
		dst := (i*31 + 17) % 64
		if dst == src {
			dst = (dst + 1) % 64
		}
		if _, err := route.Compute(topo, src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkECCRoundTrip measures SECDED encode+decode of a full 256-bit
// payload.
func BenchmarkECCRoundTrip(b *testing.B) {
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(i * 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := link.ECCEncode(data, 256)
		if _, res := w.Decode(); res != link.ECCClean {
			b.Fatal("unexpected ECC result")
		}
	}
}

// BenchmarkPacketSegmentation measures flit segmentation and reassembly of
// a 1 KiB payload.
func BenchmarkPacketSegmentation(b *testing.B) {
	payload := make([]byte, 1024)
	for i := 0; i < b.N; i++ {
		p := &flit.Packet{ID: uint64(i), Payload: payload}
		fl := p.Flits()
		if _, err := flit.Reassemble(fl); err != nil {
			b.Fatal(err)
		}
	}
}
