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
	errPhys    = errors.New("network: the physical wire layer draws the shared kernel RNG in link order, and its hard faults, steering and transient probability are outside link state")
	errTracing = errors.New("network: lifecycle tracing logs events in one global order")
)

// CapabilitiesOf derives the capability record for cfg, one rule per
// feature that withdraws some; when both rules withdraw sharding, the
// physical wire layer's reason is reported.
func CapabilitiesOf(cfg Config) Capabilities {
	var c Capabilities
	if cfg.PhysWires {
		c.Sharding, c.Checkpoint = errPhys, errPhys
	}
	if c.Sharding == nil && cfg.Probe != nil && cfg.Probe.Tracer() != nil {
		c.Sharding = errTracing
	}
	return c
}
