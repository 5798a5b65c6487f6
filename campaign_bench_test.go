package noc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/topology"
)

// Campaign-engine benchmarks: what a sweep point costs to set up and run.
// BenchmarkNetworkBuild4096 is the price of a construction at the
// 4096-tile scale, which every run, replica and resume pays; benchjson
// gates its allocs/op in `make ci`, so per-tile allocation cannot come
// back unnoticed. The SweepThroughput pair records campaign throughput in
// measurements per second with and without warm forks, so
// BENCH_cycles.json carries the amortization factor the campaign engine
// was built for.

// BenchmarkNetworkBuild4096 measures the full build of a 64x64
// (4096-tile) folded torus: topology, routers, links, ports, shard
// partition, phase schedule.
func BenchmarkNetworkBuild4096(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo, err := topology.NewFoldedTorus(64, 64)
		if err != nil {
			b.Fatal(err)
		}
		n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 1, Shards: 1})
		if err != nil {
			b.Fatal(err)
		}
		if n.Kernel().Now() != 0 {
			b.Fatal("fresh network not at cycle 0")
		}
	}
}

// sweepBenchParams is the representative multi-load campaign both
// SweepThroughput benchmarks run: a 16x16 torus with a long deterministic
// warmup (1500 cycles) ahead of a short measurement window (500 cycles) —
// the regime where replicated measurements dominate a campaign and the
// warm fork pays: the cold path simulates warmup+measure per measurement
// (2000 cycles), the warm path simulates the warmup once per load point
// and forks it per replica (1500 + 8x500 = 5500 cycles for 8
// measurements).
func sweepBenchParams() core.RunParams {
	p := core.DefaultRunParams()
	p.K = 16
	p.FlitsPerPacket = 2
	p.WarmupCycles = 1500
	p.MeasureCycles = 500
	return p
}

var sweepBenchRates = []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3}

const sweepBenchReplicas = 8

// BenchmarkSweepThroughput runs the representative campaign through the
// warm-fork engine (SweepReplicated) and reports measurements per second
// as "points/sec" — the campaign engine's headline metric, regression-
// gated by benchjson alongside ns/op.
func BenchmarkSweepThroughput(b *testing.B) {
	p := sweepBenchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := core.SweepReplicated(p, sweepBenchRates, sweepBenchReplicas)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != len(sweepBenchRates) {
			b.Fatalf("got %d points, want %d", len(pts), len(sweepBenchRates))
		}
	}
	meas := float64(b.N * len(sweepBenchRates) * sweepBenchReplicas)
	b.ReportMetric(meas/b.Elapsed().Seconds(), "points/sec")
}

// BenchmarkSweepThroughputCold is the same campaign — identical topology,
// load points, and measurement count — with every measurement paying its
// own warmup, the pre-fork semantics (plain Sweep over the expanded rate
// list). The warm/cold points-per-second ratio in BENCH_cycles.json is
// the recorded amortization factor.
func BenchmarkSweepThroughputCold(b *testing.B) {
	p := sweepBenchParams()
	rates := make([]float64, 0, len(sweepBenchRates)*sweepBenchReplicas)
	for _, r := range sweepBenchRates {
		for i := 0; i < sweepBenchReplicas; i++ {
			rates = append(rates, r)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := core.Sweep(p, rates)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != len(rates) {
			b.Fatalf("got %d points, want %d", len(pts), len(rates))
		}
	}
	b.ReportMetric(float64(b.N*len(rates))/b.Elapsed().Seconds(), "points/sec")
}
