package network

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// TestCapabilities pins the capability matrix: for every configuration
// flavour, built on a 4x4 at Shards 4, each field of the record is nil or
// its named reason, and the engine's observed behaviour agrees with it —
// the shard count. Every flavour runs the worklists, so each must sweep
// its drained port off the pump worklist, and every flavour checkpoints.
func TestCapabilities(t *testing.T) {
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
		{"watchdog", true, func(c *Config) { c.Watchdog = 40 }, Capabilities{}},
		{"deflect", true, func(c *Config) { c.Router.Mode = router.ModeDeflect }, Capabilities{}},
		{"phys-wires", true, func(c *Config) { c.PhysWires = true }, Capabilities{}},
		{"probe-counters", true, func(c *Config) { c.Probe = telemetry.New(telemetry.Config{}) }, Capabilities{}},
		{"probe-series", true, func(c *Config) { c.Probe = telemetry.New(telemetry.Config{SampleEvery: 10}) }, Capabilities{}},
		{"probe-tracing", true, func(c *Config) { c.Probe = telemetry.New(telemetry.Config{Trace: true}) },
			Capabilities{Sharding: errTracing}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := buildShardNet(t, 4, tc.wrap, tc.mod)
			caps := n.caps
			if caps != tc.want {
				t.Fatalf("capabilities = %+v, want %+v", caps, tc.want)
			}
			if got := CapabilitiesOf(n.cfg); got != caps {
				t.Errorf("CapabilitiesOf(cfg) = %+v, network holds %+v", got, caps)
			}
			if (n.Shards() == 1) != (caps.Sharding != nil) {
				t.Errorf("runs %d of 4 shards with Sharding = %v", n.Shards(), caps.Sharding)
			}
			if _, err := n.Port(0).Send(5, []byte{1}, flit.VCMask(0xFF), 0); err != nil {
				t.Fatal(err)
			}
			n.Run(50)
			if n.ports[0].onPump {
				t.Error("drained port still on the pump worklist")
			}
			if _, err := n.SaveCheckpoint(0, 0); err != nil {
				t.Errorf("SaveCheckpoint = %v", err)
			}
		})
	}
	if got := buildShardNet(t, 64, true, nil).Shards(); got != 16 {
		t.Errorf("Shards=64 on 16 tiles -> %d, want clamp to 16", got)
	}
	if got := buildShardNet(t, 0, true, nil).Shards(); got != 1 {
		t.Errorf("Shards=0 -> %d, want the sequential loop", got)
	}
}
