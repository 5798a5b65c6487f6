package network

import "errors"

// Capabilities records which engine features a configuration supports:
// each field is nil when the feature is available, or the reason it is
// not. CapabilitiesOf is the one place these rules are decided; New
// stores the record, and the shard count, checkpoints, and core's warm
// forks read it. Every configuration runs the same worklist-gated phase
// bodies, so no field withdraws a fast path of the cycle loop.
type Capabilities struct {
	Sharding   error // intra-cycle sharding (when set, the network runs one shard)
	Checkpoint error // SaveCheckpoint, RestoreCheckpoint, Snapshot and Fork
}

// The reasons a configuration withdraws capabilities, one per feature.
var (
	errDeflect = errors.New("network: deflection routers are a separate router type whose state checkpoints do not cover")
	errPhys    = errors.New("network: the physical wire layer draws the shared kernel RNG in link order, and its hard faults, steering and transient probability are outside link state")
	errTracing = errors.New("network: lifecycle tracing logs events in one global order")
)

// Capability bits, in Capabilities field order.
const (
	capSharding = 1 << iota
	capCheckpoint
)

// CapabilitiesOf derives the capability record for cfg. Each rule names a
// feature, its reason, and the capabilities it withdraws; when several
// rules withdraw one capability, the first rule's reason is reported.
func CapabilitiesOf(cfg Config) Capabilities {
	tracing := cfg.Probe != nil && cfg.Probe.Tracer() != nil
	rules := [...]struct {
		on     bool
		reason error
		caps   int
	}{
		{cfg.Deflect, errDeflect, capCheckpoint},
		{cfg.PhysWires, errPhys, capSharding | capCheckpoint},
		{tracing, errTracing, capSharding},
	}
	var c Capabilities
	fields := [...]*error{&c.Sharding, &c.Checkpoint}
	for _, r := range rules {
		for i, f := range fields {
			if r.on && r.caps&(1<<i) != 0 && *f == nil {
				*f = r.reason
			}
		}
	}
	return c
}
