package network

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/flit"
	"repro/internal/router"
	"repro/internal/topology"
)

// The sharded cycle loop must be byte-identical to the sequential one for
// any shard count. These tests drive identical deterministic workloads
// through networks built at several shard counts and require every
// observable — recorder counters, latency histograms, per-router stats,
// link utilization, pool accounting — to match the 1-shard run exactly.

// shardTestConfig names one network flavour exercised by the determinism
// matrix.
type shardTestConfig struct {
	name    string
	build   func(t *testing.T, shards int) *Network
	maxFlit int // max payload flits a client may send
}

func buildShardNet(t *testing.T, shards int, wrap bool, mod func(*Config)) *Network {
	t.Helper()
	var topo topology.Topology
	var err error
	if wrap {
		topo, err = topology.NewFoldedTorus(4, 4)
	} else {
		topo, err = topology.NewMesh(4, 4)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 3, Shards: shards}
	if mod != nil {
		mod(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestZeroShardsIsSequential: a Config that leaves Shards at its zero
// value runs the sequential loop whatever GOMAXPROCS is, so a default
// build on a multi-CPU host pays no barriers.
func TestZeroShardsIsSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if got := buildShardNet(t, 0, true, nil).Shards(); got != 1 {
		t.Errorf("Shards=0 at GOMAXPROCS=2 runs %d shards, want 1", got)
	}
}

// attachShardClients wires a deterministic, loopback-including workload:
// tile-staggered sends with varying size, destination, and class.
func attachShardClients(n *Network, maxFlits int, stop int64) {
	tiles := n.Topology().NumTiles()
	for tile := 0; tile < tiles; tile++ {
		tile := tile
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			_ = p.Deliveries()
			if now >= stop || (now+int64(tile))%3 != 0 {
				return
			}
			dst := (tile*7 + int(now)*5) % tiles // includes dst == tile (loopback)
			size := 1 + (tile+int(now))%(maxFlits*flit.DataBytes)
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(tile + i)
			}
			_, _ = p.Send(dst, payload, flit.VCMask(0xFF), tile%3)
		}))
	}
}

// shardFingerprint renders everything the simulation can observably
// produce into one comparable string.
func shardFingerprint(n *Network) string {
	var sb strings.Builder
	rec := n.Recorder()
	fmt.Fprintf(&sb, "rec=%s window=%d dflits=%d\n", rec.String(), rec.WindowFlits, rec.DeliveredFlits)
	fmt.Fprintf(&sb, "plat=%v\nnlat=%v\n", rec.PacketLatency, rec.NetworkLatency)
	fmt.Fprintf(&sb, "occ=%d outstanding=%d aborted=%d\n", n.Occupancy(), n.FlitsOutstanding(), n.AbortedCount())
	for tile, r := range n.routers {
		fmt.Fprintf(&sb, "r%d %+v\n", tile, r.Stats)
	}
	fmt.Fprintf(&sb, "util=%v max=%.6f\n", n.LinkUtilization(), n.MaxLinkUtilization())
	return sb.String()
}

// runShardWorkload builds, drives, and drains one network and returns its
// fingerprint.
func runShardWorkload(t *testing.T, c shardTestConfig, shards int) (string, int) {
	t.Helper()
	n := c.build(t, shards)
	attachShardClients(n, c.maxFlit, 400)
	n.Run(400)
	if !n.Drain(20000) {
		t.Fatalf("%s shards=%d: did not drain", c.name, shards)
	}
	if out := n.FlitsOutstanding(); out != 0 {
		t.Fatalf("%s shards=%d: %d flits leaked", c.name, shards, out)
	}
	return shardFingerprint(n), n.Shards()
}

// TestShardedNetworkMatchesSequential runs the determinism matrix: every
// router flavour × shard counts {2, 3, tiles}. Each must reproduce the
// sequential fingerprint byte-for-byte.
func TestShardedNetworkMatchesSequential(t *testing.T) {
	configs := []shardTestConfig{
		{
			name: "vc-torus-multiflit",
			build: func(t *testing.T, s int) *Network {
				return buildShardNet(t, s, true, nil)
			},
			maxFlit: 3,
		},
		{
			name: "vc-mesh-adaptive",
			build: func(t *testing.T, s int) *Network {
				return buildShardNet(t, s, false, func(c *Config) { c.Adaptive = true })
			},
			maxFlit: 2,
		},
		{
			name: "vc-cutthrough",
			build: func(t *testing.T, s int) *Network {
				return buildShardNet(t, s, true, func(c *Config) { c.Router.CutThrough = true })
			},
			maxFlit: 2,
		},
		{
			name: "drop-mode",
			build: func(t *testing.T, s int) *Network {
				return buildShardNet(t, s, true, func(c *Config) { c.Router.Mode = router.ModeDrop })
			},
			maxFlit: 1,
		},
		{
			name: "deflect",
			build: func(t *testing.T, s int) *Network {
				return buildShardNet(t, s, true, func(c *Config) { c.Router.Mode = router.ModeDeflect })
			},
			maxFlit: 1,
		},
		{
			name: "elastic-mesh",
			build: func(t *testing.T, s int) *Network {
				return buildShardNet(t, s, false, func(c *Config) { c.ElasticLinks = true })
			},
			maxFlit: 2,
		},
	}
	for _, c := range configs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, seqShards := runShardWorkload(t, c, 1)
			if seqShards != 1 {
				t.Fatalf("sequential build reports %d shards", seqShards)
			}
			for _, shards := range []int{2, 3, 16} {
				got, eff := runShardWorkload(t, c, shards)
				if eff != shards {
					t.Fatalf("shards=%d: network reports %d effective shards", shards, eff)
				}
				if got != want {
					t.Errorf("shards=%d diverged from sequential:\n--- sequential ---\n%s--- shards=%d ---\n%s",
						shards, want, shards, got)
				}
			}
		})
	}
}

// TestShardedWatchdogFaultsMatchSequential covers the fault path: a credit
// watchdog network whose clients keep injecting while a link is forced
// down, so declare-dead, abort tails, rerouting, and the abort accounting
// all execute under sharding.
func TestShardedWatchdogFaultsMatchSequential(t *testing.T) {
	build := func(shards int) *Network {
		n := buildShardNet(t, shards, true, func(c *Config) { c.Watchdog = 40 })
		attachShardClients(n, 2, 600)
		n.Run(100)
		n.SetLinkDown(3, true) // injector-style hardware fault; watchdog must detect
		n.Run(500)
		if !n.Drain(30000) {
			t.Fatalf("shards=%d: did not drain", shards)
		}
		return n
	}
	seq := build(1)
	want := shardFingerprint(seq) + fmt.Sprintf("faults=%+v", seq.FaultTotals())
	if seq.FaultMap().Len() == 0 {
		t.Fatal("watchdog never declared the dead link; workload too light")
	}
	for _, shards := range []int{2, 3, 16} {
		n := build(shards)
		got := shardFingerprint(n) + fmt.Sprintf("faults=%+v", n.FaultTotals())
		if got != want {
			t.Errorf("shards=%d diverged:\n--- sequential ---\n%s\n--- sharded ---\n%s", shards, want, got)
		}
	}
}
