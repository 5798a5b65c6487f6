package noc

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// buildLoadedNet returns the benchmark network: the 4x4 folded torus under
// 30% uniform Bernoulli load with 2-flit packets.
func buildLoadedNet(t testing.TB, stopAt int64, extra func(*network.Config)) *network.Network {
	t.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 1}
	if extra != nil {
		extra(&cfg)
	}
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		g := traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.3, 2, flit.VCMask(0xFF), 1)
		g.StopAt = stopAt
		n.AttachClient(tile, g)
	}
	return n
}

// TestCycleLoopAllocFree pins the tentpole property of the fast-path
// engine: after warmup, the five-phase cycle loop allocates (almost)
// nothing — flits come from the network's pool, credit and delivery
// slices are reused, and payloads live in per-generator scratch buffers.
// The seed engine allocated ~106 objects per cycle on the torus workload.
// The adaptive mesh routes every head flit through the west-first
// candidate function, and the deflection mesh asks for every packet's
// dimension-order step every cycle; neither may allocate either.
func TestCycleLoopAllocFree(t *testing.T) {
	check := func(t *testing.T, n *network.Network) {
		t.Helper()
		n.Run(2000) // warm the pool and buffers
		const cyclesPerRun = 200
		allocs := testing.AllocsPerRun(5, func() {
			n.Run(cyclesPerRun)
		})
		perCycle := allocs / cyclesPerRun
		if perCycle > 1 {
			t.Fatalf("steady-state cycle loop allocates %.2f objects/cycle, want ~0", perCycle)
		}
	}
	t.Run("torus4x4", func(t *testing.T) {
		check(t, buildLoadedNet(t, 0, nil))
	})
	t.Run("adaptive-mesh8x8", func(t *testing.T) {
		topo, err := topology.NewMesh(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Adaptive: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for tile := 0; tile < topo.NumTiles(); tile++ {
			n.AttachClient(tile, traffic.NewGenerator(tile, traffic.Uniform{Tiles: topo.NumTiles()}, 0.2, 2, flit.VCMask(0xFF), 1))
		}
		check(t, n)
	})
	t.Run("deflect-mesh4x4", func(t *testing.T) {
		topo, err := topology.NewMesh(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		rc := router.DefaultConfig(0)
		rc.Mode = router.ModeDeflect
		n, err := network.New(network.Config{Topo: topo, Router: rc, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for tile := 0; tile < topo.NumTiles(); tile++ {
			n.AttachClient(tile, traffic.NewGenerator(tile, traffic.Uniform{Tiles: topo.NumTiles()}, 0.3, 1, flit.VCMask(0xFF), 1))
		}
		check(t, n)
	})
}

// TestIdleRegionCost gates the quiescence-aware scan on the 4096-tile
// torus: with traffic sources on only 64 of 4096 tiles, a simulated
// cycle must cost a small fraction of the fully loaded cycle — the
// per-cycle sweeps walk the active-router and active-link worklists, so
// idle regions cost O(active routers), not O(tiles). The pair runs again
// with the credit watchdog armed, at a threshold no healthy link reaches,
// since its tick walks the same worklists. The 25% bound is deliberately
// loose (the measured ratio is a few percent) so scheduler noise can't
// trip it; it fails only if a full-die scan comes back to the hot path.
func TestIdleRegionCost(t *testing.T) {
	if testing.Short() {
		t.Skip("idle-region cost gate is not -short")
	}
	const cycles = 2000
	best := func(n *network.Network) time.Duration {
		bestD := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			n.Run(cycles)
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	for _, watchdog := range []int{0, 1000} {
		t.Run(fmt.Sprintf("watchdog%d", watchdog), func(t *testing.T) {
			busy := build4096(t, false, watchdog)
			idle := build4096(t, true, watchdog)
			busy.Run(2000)
			idle.Run(2000)
			busyD := best(busy)
			idleD := best(idle)
			if ratio := float64(idleD) / float64(busyD); ratio > 0.25 {
				t.Fatalf("idle 4096-tile cycle costs %.0f%% of busy (idle %v vs busy %v per %d cycles); want <= 25%%: idle regions must cost O(active routers)",
					100*ratio, idleD, busyD, cycles)
			}
		})
	}
}

// TestDrainReturnsEveryFlit is the pool leak check: after a drain, every
// flit drawn from the network's pools has been recycled — whether it was
// delivered normally, dropped at a full buffer (drop mode), discarded on
// a dead link, swept toward a dead output, or synthesized as an abort
// tail. Each case runs at 1 and 3 shards; flits recycle into whichever
// shard's pool frees them, so only the sum over every shard's pool
// balances.
func TestDrainReturnsEveryFlit(t *testing.T) {
	check := func(t *testing.T, n *network.Network) {
		t.Helper()
		if !n.Drain(100000) {
			t.Fatalf("network did not drain (occupancy %d)", n.Occupancy())
		}
		if got := n.FlitsOutstanding(); got != 0 {
			t.Fatalf("pool leak: %d of %d flits never recycled", got, n.FlitsDrawn())
		}
		if n.FlitsDrawn() == 0 {
			t.Fatal("pools were never used; leak check is vacuous")
		}
	}
	atShards := func(t *testing.T, body func(t *testing.T, shards int)) {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) { body(t, shards) })
		}
	}

	t.Run("normal-traffic", func(t *testing.T) {
		atShards(t, func(t *testing.T, shards int) {
			n := buildLoadedNet(t, 3000, func(cfg *network.Config) { cfg.Shards = shards })
			n.Run(3000)
			check(t, n)
		})
	})

	t.Run("drop-mode", func(t *testing.T) {
		atShards(t, func(t *testing.T, shards int) {
			topo, err := topology.NewFoldedTorus(4, 4)
			if err != nil {
				t.Fatal(err)
			}
			rc := router.DefaultConfig(0)
			rc.Mode = router.ModeDrop
			rc.BufFlits = 1
			n, err := network.New(network.Config{Topo: topo, Router: rc, Seed: 3, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for tile := 0; tile < topo.NumTiles(); tile++ {
				// Single-flit packets at high load so drops actually happen.
				g := traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.6, 1, flit.VCMask(0xFF), 3)
				g.StopAt = 3000
				n.AttachClient(tile, g)
			}
			n.Run(3000)
			dropped := int64(0)
			for tile := 0; tile < topo.NumTiles(); tile++ {
				dropped += n.Router(tile).Stats.DroppedFlits
			}
			if dropped == 0 {
				t.Fatal("no drops occurred; drop-path leak check is vacuous")
			}
			check(t, n)
		})
	})

	t.Run("link-kill-abort-tails", func(t *testing.T) {
		// A killed link exercises the fault recycle points: flits lost on
		// the dead wire, FaultSweep discards, and pool-drawn abort tails.
		atShards(t, func(t *testing.T, shards int) {
			n := buildLoadedNet(t, 4000, func(cfg *network.Config) {
				cfg.Watchdog = 64
				cfg.Seed = 7
				cfg.Shards = shards
			})
			inj, err := fault.NewInjector(n, []fault.Event{
				{Kind: fault.LinkKill, At: 500, Link: 9, From: -1, Tile: -1, VC: -1},
			}, 0, 4000, nil)
			if err != nil {
				t.Fatal(err)
			}
			inj.Attach()
			n.Run(4000)
			tot := n.FaultTotals()
			if len(tot.Detections) == 0 {
				t.Fatal("link kill was never detected; fault-path leak check is vacuous")
			}
			check(t, n)
		})
	})
}

// TestOccupancyBookkeeping checks the O(1) occupancy mirror against a full
// recount of the router's buffers, including after faults have dropped
// and synthesized flits.
func TestOccupancyBookkeeping(t *testing.T) {
	n := buildLoadedNet(t, 0, func(cfg *network.Config) {
		cfg.Watchdog = 64
		cfg.Seed = 11
	})
	inj, err := fault.NewInjector(n, []fault.Event{
		{Kind: fault.LinkKill, At: 400, Link: 5, From: -1, Tile: -1, VC: -1},
	}, 0, 2500, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach()
	for step := 0; step < 25; step++ {
		n.Run(100)
		for tile := 0; tile < n.Topology().NumTiles(); tile++ {
			r := n.Router(tile)
			if got, want := r.Occupancy(), r.OccupancyRecount(); got != want {
				t.Fatalf("cycle %d router %d: Occupancy()=%d, recount=%d", (step+1)*100, tile, got, want)
			}
		}
	}
}

// TestSweepParallelism pins the Level-1 contract: a sweep fanned across
// the worker pool produces byte-identical results to the sequential path,
// point for point. Each sweep takes its worker count from the Options it
// is given.
func TestSweepParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison")
	}
	base := core.DefaultRunParams()
	base.WarmupCycles, base.MeasureCycles = 300, 900
	base.FlitsPerPacket = 2
	rates := []float64{0.1, 0.25, 0.4, 0.55, 0.7}

	base.Parallelism = 1
	seq, err := core.Sweep(base, rates)
	if err != nil {
		t.Fatal(err)
	}
	base.Parallelism = 4
	par, err := core.Sweep(base, rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("point counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		// The parameters differ only in the worker count each sweep was
		// given. DeepEqual rather than ==: RunParams carries a (nil here)
		// OnNetwork hook, which makes the struct non-comparable.
		par[i].Result.Params.Parallelism = 1
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Fatalf("rate %.2f: parallel result differs from sequential:\nseq: %+v\npar: %+v",
				rates[i], seq[i].Result, par[i].Result)
		}
	}
}

// TestSweepParallelSpeedup checks the headline Level-1 win: on a machine
// with at least 4 cores, a parallel sweep finishes at least 2x faster
// than the sequential one. Skipped on smaller machines (CI containers
// with 1-2 cores can't demonstrate the speedup).
func TestSweepParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs to measure speedup, have %d", runtime.NumCPU())
	}
	base := core.DefaultRunParams()
	base.WarmupCycles, base.MeasureCycles = 500, 2500
	base.FlitsPerPacket = 2
	rates := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

	base.Parallelism = 1
	t0 := time.Now()
	if _, err := core.Sweep(base, rates); err != nil {
		t.Fatal(err)
	}
	seq := time.Since(t0)
	base.Parallelism = 4
	t0 = time.Now()
	if _, err := core.Sweep(base, rates); err != nil {
		t.Fatal(err)
	}
	par := time.Since(t0)
	if speedup := seq.Seconds() / par.Seconds(); speedup < 2 {
		t.Fatalf("parallel sweep speedup %.2fx (seq %v, par %v), want >= 2x on %d CPUs",
			speedup, seq, par, runtime.NumCPU())
	}
}
