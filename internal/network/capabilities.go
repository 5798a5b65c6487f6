package network

import "errors"

// Capabilities records which engine features a configuration supports:
// each field is nil when the feature is available, or the reason it is
// not. CapabilitiesOf is the one place these rules are decided; New
// stores the record, and the shard count reads it. Every configuration
// runs the same worklist-gated phase bodies, checkpoints, forks and
// resumes, so no field withdraws a fast path of the cycle loop.
type Capabilities struct {
	Sharding error // intra-cycle sharding (when set, the network runs one shard)
}

// errTracing is the reason lifecycle tracing withdraws sharding.
var errTracing = errors.New("network: lifecycle tracing logs events in one global order")

// CapabilitiesOf derives the capability record for cfg, one rule per
// feature that withdraws some.
func CapabilitiesOf(cfg Config) Capabilities {
	var c Capabilities
	if cfg.Probe != nil && cfg.Probe.Tracer() != nil {
		c.Sharding = errTracing
	}
	return c
}
