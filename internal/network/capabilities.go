package network

import "errors"

// Capabilities records which engine features a configuration supports:
// each field is nil when the feature is available, or the reason it is
// not. CapabilitiesOf is the one place these rules are decided; New
// stores the record, and the shard count, worklist gating, epoch
// batching, checkpoints, Reset, and core's arena and warm forks read it.
type Capabilities struct {
	Sharding   error // intra-cycle sharding (when set, the network runs one shard)
	PortGating error // pump/loopback port worklists and the active-list eject walk
	LinkGating error // per-shard link worklists, and the epoch batching they drive
	Checkpoint error // SaveCheckpoint, RestoreCheckpoint, Snapshot and Fork
	Reset      error // in-place Reset, which core's arena and warm forks need
}

// The reasons a configuration withdraws capabilities, one per feature.
var (
	errDeflect = errors.New("network: deflection routers are a separate router type, outside the worklists, checkpoints and Reset")
	errPhys    = errors.New("network: the physical wire layer draws the shared kernel RNG in link order, and its hard faults, steering and transient probability are outside link state")
	errMeter   = errors.New("network: the power meter is one shared accumulator, summed in scan order and outside checkpoints and Reset")
	errTracing = errors.New("network: lifecycle tracing logs events in one global order")
	errProbe   = errors.New("network: telemetry probes keep per-component counters that Reset does not cover")
	errWatch   = errors.New("network: credit watchdogs count starvation on every link every cycle")
)

// Capability bits, in Capabilities field order.
const (
	capSharding = 1 << iota
	capPortGating
	capLinkGating
	capCheckpoint
	capReset
)

// CapabilitiesOf derives the capability record for cfg. Each rule names a
// feature, its reason, and the capabilities it withdraws; when several
// rules withdraw one capability, the first rule's reason is reported.
func CapabilitiesOf(cfg Config) Capabilities {
	tracing := cfg.Probe != nil && cfg.Probe.Tracer() != nil
	gating := capPortGating | capLinkGating
	rules := [...]struct {
		on     bool
		reason error
		caps   int
	}{
		{cfg.Deflect, errDeflect, gating | capCheckpoint | capReset},
		{cfg.PhysWires, errPhys, capSharding | capLinkGating | capCheckpoint | capReset},
		{cfg.Meter != nil, errMeter, capSharding | gating | capCheckpoint | capReset},
		{tracing, errTracing, capSharding | gating},
		{cfg.Probe != nil, errProbe, capReset},
		{cfg.Watchdog > 0, errWatch, capLinkGating},
	}
	var c Capabilities
	fields := [...]*error{&c.Sharding, &c.PortGating, &c.LinkGating, &c.Checkpoint, &c.Reset}
	for _, r := range rules {
		for i, f := range fields {
			if r.on && r.caps&(1<<i) != 0 && *f == nil {
				*f = r.reason
			}
		}
	}
	return c
}

// Capabilities reports the record New derived from the configuration.
func (n *Network) Capabilities() Capabilities { return n.caps }
