package network

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/flit"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// TestCapabilities pins the capability matrix: for every configuration
// flavour, built on a 4x4 at Shards 4, each field of the record is nil or
// its named reason, and the engine's observed behaviour agrees with it —
// the shard count, the worklist gating and batching, SaveCheckpoint, and
// Reset.
func TestCapabilities(t *testing.T) {
	all := Capabilities{Sharding: errMeter, PortGating: errMeter, LinkGating: errMeter, Checkpoint: errMeter, Reset: errMeter}
	for _, tc := range []struct {
		name string
		wrap bool
		mod  func(*Config)
		want Capabilities
	}{
		{"vc-torus", true, nil, Capabilities{}},
		{"drop", true, func(c *Config) { c.Router.Mode = router.ModeDrop }, Capabilities{}},
		{"cut-through", true, func(c *Config) { c.Router.CutThrough = true }, Capabilities{}},
		{"adaptive-mesh", false, func(c *Config) { c.Adaptive = true }, Capabilities{}},
		{"elastic-mesh", false, func(c *Config) { c.ElasticLinks = true }, Capabilities{}},
		{"watchdog", true, func(c *Config) { c.Watchdog = 40 }, Capabilities{LinkGating: errWatch}},
		{"deflect", true, func(c *Config) { c.Deflect = true },
			Capabilities{PortGating: errDeflect, LinkGating: errDeflect, Checkpoint: errDeflect, Reset: errDeflect}},
		{"phys-wires", true, func(c *Config) { c.PhysWires = true },
			Capabilities{Sharding: errPhys, LinkGating: errPhys, Checkpoint: errPhys, Reset: errPhys}},
		{"meter", true, func(c *Config) { c.Meter = power.NewMeter(power.DefaultModel(0)) }, all},
		{"probe-counters", true, func(c *Config) { c.Probe = telemetry.New(telemetry.Config{}) },
			Capabilities{Reset: errProbe}},
		{"probe-series", true, func(c *Config) { c.Probe = telemetry.New(telemetry.Config{SampleEvery: 10}) },
			Capabilities{Reset: errProbe}},
		{"probe-tracing", true, func(c *Config) { c.Probe = telemetry.New(telemetry.Config{Trace: true}) },
			Capabilities{Sharding: errTracing, PortGating: errTracing, LinkGating: errTracing, Reset: errProbe}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := buildShardNet(t, 4, tc.wrap, tc.mod)
			caps := n.Capabilities()
			if caps != tc.want {
				t.Fatalf("capabilities = %+v, want %+v", caps, tc.want)
			}
			if got := CapabilitiesOf(n.cfg); got != caps {
				t.Errorf("CapabilitiesOf(cfg) = %+v, network holds %+v", got, caps)
			}
			if (n.Shards() == 1) != (caps.Sharding != nil) {
				t.Errorf("runs %d of 4 shards with Sharding = %v", n.Shards(), caps.Sharding)
			}
			if linkGated := n.linkOn != nil; linkGated != (caps.LinkGating == nil) {
				t.Errorf("link worklists built %v with LinkGating = %v", linkGated, caps.LinkGating)
			}
			// Port gating sweeps a drained port off its pump worklist; the
			// full scan never clears the enlisting flag.
			if _, err := n.Port(0).Send(5, []byte{1}, flit.VCMask(0xFF), 0); err != nil {
				t.Fatal(err)
			}
			n.Run(50)
			if swept := !n.ports[0].onPump; swept != (caps.PortGating == nil) {
				t.Errorf("drained port swept off the pump worklist %v with PortGating = %v", swept, caps.PortGating)
			}
			wantBatch := 0
			if caps.Sharding == nil && caps.LinkGating == nil {
				wantBatch = DefaultBatchEpochs
			}
			if got := n.Kernel().Batching(); got != wantBatch {
				t.Errorf("batching %d, want %d (Sharding = %v, LinkGating = %v)", got, wantBatch, caps.Sharding, caps.LinkGating)
			}
			if _, err := n.SaveCheckpoint(0, 0); !errors.Is(err, caps.Checkpoint) {
				t.Errorf("SaveCheckpoint = %v, want %v", err, caps.Checkpoint)
			}
			if err := n.Reset(1, 0); !errors.Is(err, caps.Reset) {
				t.Errorf("Reset = %v, want %v", err, caps.Reset)
			}
		})
	}
	if got := buildShardNet(t, 64, true, nil).Shards(); got != 16 {
		t.Errorf("Shards=64 on 16 tiles -> %d, want clamp to 16", got)
	}
	if got := buildShardNet(t, 0, true, nil).Shards(); got < 1 || got > 16 {
		t.Errorf("Shards=0 (auto) -> %d, want within [1,16]", got)
	}
}

// TestResetMatchesNew holds Reset ≡ New on the full simulation state: for
// every Reset-capable flavour, a network that ran traffic and was Reset
// must snapshot byte-identically to a fresh build with the same seed and
// warmup, and stay identical when both then run the same traffic.
func TestResetMatchesNew(t *testing.T) {
	const seed, warmup = 5, 20
	// drive attaches deterministic clients and runs the network.
	plain := func(maxFlit int) func(t *testing.T, n *Network, cycles int64) {
		return func(t *testing.T, n *Network, cycles int64) {
			attachShardClients(n, maxFlit, cycles)
			n.Run(cycles)
		}
	}
	for _, tc := range []struct {
		name  string
		wrap  bool
		mod   func(*Config)
		drive func(t *testing.T, n *Network, cycles int64)
	}{
		{"torus", true, nil, plain(3)},
		{"drop", true, func(c *Config) { c.Router.Mode = router.ModeDrop }, plain(1)},
		{"cut-through", true, func(c *Config) { c.Router.CutThrough = true }, plain(2)},
		{"adaptive-mesh", false, func(c *Config) { c.Adaptive = true }, plain(2)},
		{"elastic-mesh", false, func(c *Config) { c.ElasticLinks = true }, plain(2)},
		{"watchdog-link-down", true, func(c *Config) { c.Watchdog = 40 },
			func(t *testing.T, n *Network, cycles int64) {
				attachShardClients(n, 2, cycles)
				n.Run(50)
				n.SetLinkDown(3, true)
				n.Run(cycles - 50)
				if n.FaultMap().Len() == 0 {
					t.Fatal("watchdog never declared the forced-down link dead")
				}
			}},
		{"reserved-flow", true, func(c *Config) { c.Router.ReservedVC, c.Router.ResPeriod = 7, 8 },
			func(t *testing.T, n *Network, cycles int64) {
				const flow, src, dst = 1, 0, 10
				if _, err := n.ReserveFlow(src, dst, flow, 0); err != nil {
					t.Fatal(err)
				}
				attachShardClients(n, 2, cycles)
				n.AttachClient(src, ClientFunc(func(now int64, p *Port) {
					p.Deliveries()
					if now%8 == 0 {
						if _, err := p.SendReserved(dst, []byte{byte(now)}, flow); err != nil {
							t.Errorf("reserved send: %v", err)
						}
					}
				}))
				n.Run(cycles)
			}},
	} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				reused := buildShardNet(t, shards, tc.wrap, tc.mod)
				tc.drive(t, reused, 400)
				if err := reused.Reset(seed, warmup); err != nil {
					t.Fatal(err)
				}
				fresh := buildShardNet(t, shards, tc.wrap, func(c *Config) {
					if tc.mod != nil {
						tc.mod(c)
					}
					c.Seed, c.Warmup = seed, warmup
				})
				sameSnapshot(t, "after Reset", reused, fresh)
				for _, n := range []*Network{reused, fresh} {
					tc.drive(t, n, 300)
					for tile := 0; tile < n.Topology().NumTiles(); tile++ {
						n.AttachClient(tile, nil)
					}
				}
				sameSnapshot(t, "after 300 cycles", reused, fresh)
			})
		}
	}
}

// sameSnapshot requires two networks to serialise to identical bytes.
func sameSnapshot(t *testing.T, when string, a, b *Network) {
	t.Helper()
	sa, err := a.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("%s: Reset network's snapshot (%d bytes) differs from a fresh build's (%d bytes)", when, len(sa), len(sb))
	}
}
