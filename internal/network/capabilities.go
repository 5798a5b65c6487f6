package network

import "errors"

// Capabilities records which engine features a configuration supports:
// each field is nil when the feature is available, or the reason it is
// not. CapabilitiesOf is the one place these rules are decided; New
// stores the record, and the shard count, worklist gating, checkpoints,
// and core's warm forks read it.
type Capabilities struct {
	Sharding   error // intra-cycle sharding (when set, the network runs one shard)
	PortGating error // pump/loopback port worklists and the active-list eject walk
	LinkGating error // per-shard link worklists
	Checkpoint error // SaveCheckpoint, RestoreCheckpoint, Snapshot and Fork
}

// The reasons a configuration withdraws capabilities, one per feature.
var (
	errDeflect = errors.New("network: deflection routers are a separate router type, outside the worklists and checkpoints")
	errPhys    = errors.New("network: the physical wire layer draws the shared kernel RNG in link order, and its hard faults, steering and transient probability are outside link state")
	errTracing = errors.New("network: lifecycle tracing logs events in one global order")
	errWatch   = errors.New("network: credit watchdogs count starvation on every link every cycle")
)

// Capability bits, in Capabilities field order.
const (
	capSharding = 1 << iota
	capPortGating
	capLinkGating
	capCheckpoint
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
		{cfg.Deflect, errDeflect, gating | capCheckpoint},
		{cfg.PhysWires, errPhys, capSharding | capLinkGating | capCheckpoint},
		{tracing, errTracing, capSharding | gating},
		{cfg.Watchdog > 0, errWatch, capLinkGating},
	}
	var c Capabilities
	fields := [...]*error{&c.Sharding, &c.PortGating, &c.LinkGating, &c.Checkpoint}
	for _, r := range rules {
		for i, f := range fields {
			if r.on && r.caps&(1<<i) != 0 && *f == nil {
				*f = r.reason
			}
		}
	}
	return c
}
