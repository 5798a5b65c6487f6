package network

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// worklistGaps reports the first piece of pending work that no worklist
// covers, or "" when the worklists cover it all: every busy link is on its
// shard's link worklist, every VC router holding a flit is on its shard's
// router worklist, and every port with injection or loopback work is on
// its pump or loopback list. It also checks that each membership flag
// matches exactly one entry on the owning shard's list.
func worklistGaps(n *Network) string {
	links := make([]int, len(n.links))
	routers := make([]int, len(n.routers))
	pumps := make([]int, len(n.ports))
	loops := make([]int, len(n.ports))
	for si, s := range n.shards {
		for _, li := range s.activeLinks {
			if n.shardOf[n.links[li].to] != si {
				return fmt.Sprintf("link %d on shard %d's worklist, owned by shard %d", li, si, n.shardOf[n.links[li].to])
			}
			links[li]++
		}
		for _, t := range s.active {
			routers[t]++
		}
		for _, t := range s.pumpList {
			pumps[t]++
		}
		for _, t := range s.loopList {
			loops[t]++
		}
	}
	for i := range n.links {
		if want := b2i(n.linkOn[i]); links[i] != want {
			return fmt.Sprintf("link %d listed %d times with linkOn %v", i, links[i], n.linkOn[i])
		}
		if !n.links[i].l.Idle() && !n.linkOn[i] {
			return fmt.Sprintf("link %d has flits or credits in flight (%d flits) off its worklist", i, n.links[i].l.InFlight())
		}
	}
	for t, r := range n.routers {
		if want := b2i(n.onList[t]); routers[t] != want {
			return fmt.Sprintf("router %d listed %d times with onList %v", t, routers[t], n.onList[t])
		}
		if r.Occupancy() > 0 && !n.onList[t] {
			return fmt.Sprintf("router %d holds %d flits off its worklist", t, r.Occupancy())
		}
	}
	for t, p := range n.ports {
		if pumps[t] != b2i(p.onPump) || loops[t] != b2i(p.onLoop) {
			return fmt.Sprintf("port %d listed %d/%d times with onPump %v, onLoop %v", t, pumps[t], loops[t], p.onPump, p.onLoop)
		}
		if p.injWork() > 0 && !p.onPump {
			return fmt.Sprintf("port %d has %d injections off its pump worklist", t, p.injWork())
		}
		if len(p.loopback) > 0 && !p.onLoop {
			return fmt.Sprintf("port %d has %d loopbacks off its loopback worklist", t, len(p.loopback))
		}
	}
	return ""
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestWorklistCoverage runs every configuration flavour under load with
// worklistGaps checked in a serial phase at the end of every cycle. The
// watchdog flavour kills three links mid-run, so the watchdog's fault
// sweep hands credits to links whose router may then leave its worklist.
func TestWorklistCoverage(t *testing.T) {
	for _, tc := range []struct {
		name     string
		wrap     bool
		mod      func(*Config)
		maxFlits int
		kills    string
		shardsOK bool
	}{
		{"vc-torus", true, nil, 3, "", true},
		{"drop", true, func(c *Config) { c.Router.Mode = router.ModeDrop }, 1, "", true},
		{"cut-through", true, func(c *Config) { c.Router.CutThrough = true }, 3, "", true},
		{"adaptive-mesh", false, func(c *Config) { c.Adaptive = true }, 3, "", true},
		{"elastic-mesh", false, func(c *Config) { c.ElasticLinks = true }, 3, "", true},
		{"deflect", true, func(c *Config) { c.Router.Mode = router.ModeDeflect }, 1, "", true},
		{"phys-transients", true, func(c *Config) { c.PhysWires, c.TransientProb = true, 0.05 }, 3, "", false},
		{"watchdog-kills", true, func(c *Config) { c.Watchdog = 40 }, 3,
			"kill,link=0,at=100;kill,link=21,at=150;kill,link=42,at=200", true},
		{"tracing", true, func(c *Config) { c.Probe = telemetry.New(telemetry.Config{Trace: true}) }, 3, "", false},
	} {
		shardList := []int{1}
		if tc.shardsOK {
			shardList = []int{1, 2, 3}
		}
		for _, shards := range shardList {
			for _, rate := range []float64{0.1, 0.3, 0.5} {
				t.Run(fmt.Sprintf("%s/shards%d/rate%.1f", tc.name, shards, rate), func(t *testing.T) {
					n := buildShardNet(t, shards, tc.wrap, tc.mod)
					if tc.kills != "" {
						events, err := fault.ParseEvents(tc.kills)
						if err != nil {
							t.Fatal(err)
						}
						inj, err := fault.NewInjector(n, events, 0, 0, nil)
						if err != nil {
							t.Fatal(err)
						}
						inj.Attach()
					}
					loadClients(n, rate, tc.maxFlits, 7, 500)
					gap := ""
					n.Kernel().AddPhase("worklist-check", func(now sim.Cycle) {
						if gap == "" {
							if g := worklistGaps(n); g != "" {
								gap = fmt.Sprintf("cycle %d: %s", now, g)
							}
						}
					})
					n.Run(500)
					n.Drain(3000)
					if gap != "" {
						t.Fatal(gap)
					}
					if tc.kills != "" && n.FaultMap().Len() == 0 {
						t.Fatal("no link was declared dead; the fault sweep never ran")
					}
				})
			}
		}
	}
}

// TestLinkUtilizationMatchesProbe pins one utilization rule across idle
// stretches. Traffic comes in bursts with long gaps, so every link leaves
// its worklist during a gap and the next burst brings it back. Once the
// wires settle (drain, then SerdesCycles more cycles), each link's busy
// cycles over the kernel clock, the term LinkUtilization sums, must equal
// its probe's duty factor over the probe's horizon exactly, at serdes 1
// and 3 and at shards 1, 2 and 3.
func TestLinkUtilizationMatchesProbe(t *testing.T) {
	const period, burst, bursts = 400, 40, 4
	const stop = bursts*period + burst/2
	for _, serdes := range []int{1, 3} {
		for _, shards := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("serdes%d/shards%d", serdes, shards), func(t *testing.T) {
				probe := telemetry.New(telemetry.Config{})
				n := buildShardNet(t, shards, true, func(c *Config) {
					c.SerdesCycles, c.Probe = serdes, probe
				})
				tiles := n.Topology().NumTiles()
				for tile := 0; tile < tiles; tile++ {
					rng := rand.New(rand.NewSource(int64(31 + tile)))
					n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
						_ = p.Deliveries()
						if now >= stop || now%period >= burst || rng.Float64() >= 0.1 {
							return
						}
						_, _ = p.Send(rng.Intn(tiles), []byte{byte(tile)}, flit.VCMask(0xFF), 0)
					}))
				}
				var flits int64
				for b := 0; b < bursts; b++ {
					n.Run(period)
					if probe.TotalLinkFlits() == flits {
						t.Fatalf("burst %d sent nothing on the wires", b)
					}
					flits = probe.TotalLinkFlits()
					for i, on := range n.linkOn {
						if on {
							t.Fatalf("link %d still on its worklist at the end of gap %d", i, b)
						}
					}
				}
				n.Run(stop - bursts*period) // stop mid-burst, with flits on the wires
				if !n.Drain(5000) {
					t.Fatalf("network did not drain (occupancy %d)", n.Occupancy())
				}
				n.Run(int64(serdes))
				now, elapsed := n.Kernel().Now(), probe.Elapsed()
				if elapsed != now {
					t.Fatalf("probe horizon %d, kernel clock %d", elapsed, now)
				}
				var want stats.Summary
				best := 0.0
				for i, le := range n.links {
					u := probe.Links[i].Util(elapsed)
					if got := float64(le.l.BusyCycles) / float64(now); got != u {
						t.Errorf("link %d: %d busy cycles over %d = %v, probe duty factor %v (%d flits)",
							i, le.l.BusyCycles, now, got, u, probe.Links[i].Flits)
					}
					want.Add(u)
					best = max(best, u)
				}
				if got := n.LinkUtilization(); got != want {
					t.Errorf("LinkUtilization %v, probe duty factors %v", &got, &want)
				}
				if got := n.MaxLinkUtilization(); got != best {
					t.Errorf("MaxLinkUtilization %v, busiest probe duty factor %v", got, best)
				}
			})
		}
	}
}

// loadClients attaches a deterministic uniform-random Bernoulli source
// to every tile, with payloads of 1 to maxFlits flits and an occasional
// loopback, sending until stop.
func loadClients(n *Network, rate float64, maxFlits int, seed, stop int64) {
	tiles := n.Topology().NumTiles()
	for tile := 0; tile < tiles; tile++ {
		rng := rand.New(rand.NewSource(seed + int64(tile)))
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			_ = p.Deliveries()
			if now >= stop || rng.Float64() >= rate {
				return
			}
			payload := make([]byte, 1+rng.Intn(maxFlits*flit.DataBytes))
			// Errors are expected: a network cut by killed links refuses
			// sends it cannot route.
			_, _ = p.Send(rng.Intn(tiles), payload, flit.VCMask(0xFF), rng.Intn(2))
		}))
	}
}

// idObserver records the packet ids a PacketObserver is handed, in order.
type idObserver struct{ ids []uint64 }

func (o *idObserver) PacketDelivered(ob *PacketObservation) { o.ids = append(o.ids, ob.ID) }

// TestPacketObserverOrderIsShardInvariant drives a busy 8×8 torus and
// requires the packet observer to see the same delivery sequence at
// shards 1, 2 and 3. The eject walk follows the active worklist, whose
// order depends on the shard count, so ejectMerge must restore tile order.
func TestPacketObserverOrderIsShardInvariant(t *testing.T) {
	run := func(shards int) []uint64 {
		topo, err := topology.NewFoldedTorus(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		obs := &idObserver{}
		n.SetPacketObserver(obs)
		loadClients(n, 0.3, 2, 13, 1500)
		n.Run(1500)
		return obs.ids
	}
	want := run(1)
	if len(want) < 1000 {
		t.Fatalf("only %d packets observed; the workload is too light to order-test", len(want))
	}
	for _, shards := range []int{2, 3} {
		got := run(shards)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: observed %d packets, sequential run %d", shards, len(got), len(want))
		}
		differ := 0
		for i := range want {
			if got[i] != want[i] {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("shards=%d: %d of %d observer positions differ from the sequential order", shards, differ, len(want))
		}
	}
}
