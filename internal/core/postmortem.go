package core

// Post-mortem replay support for the flight recorder
// (internal/telemetry/flightrec): a run serializes a SimSpec — the
// complete recipe for rebuilding its network and clients — into every
// dump, and cmd/nocpost rebuilds from it to time-travel through the
// recorded window. Rebuild attaches clients through the function Run
// uses, so a network rebuilt from a spec and advanced deterministically
// reproduces the original run byte for byte.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/network"
	"repro/internal/telemetry"
)

// SimSpec is the serializable identity of a run: its Spec, the client
// arrangement, the probe layout, and any identity the Spec cannot carry.
// Shard count, drain budget, checkpoint cadence and
// observability hooks are byte-identical knobs, so they are absent and a
// replay or resume may pick its own. The probe fields are present because
// an attached probe is itself checkpointed state: a keyframe restores into
// a rebuilt network only when the probe layout (series on/off, tracer
// on/off) matches.
type SimSpec struct {
	Kind string `json:"kind"` // "run", "campaign", or "trace"

	Spec

	Probe               bool  `json:"probe,omitempty"`
	ProbeSampleEvery    int64 `json:"probe_sample_every,omitempty"`
	ProbeTrace          bool  `json:"probe_trace,omitempty"`
	ProbeMaxTraceEvents int   `json:"probe_max_trace_events,omitempty"`

	// Extra is client identity outside the Spec: a campaign's fault plan,
	// a replayed trace file.
	Extra string `json:"extra,omitempty"`
}

// SimSpec describes a run about to execute with p. kind is the client
// arrangement: "run" for Run's Bernoulli generators; "campaign" and
// "trace" record identity only, since their client state is not
// rebuildable from parameters (Rebuild refuses them). extra is folded in
// as SimSpec.Extra.
func (p RunParams) SimSpec(kind, extra string) SimSpec {
	s := SimSpec{Kind: kind, Spec: p.Spec, Extra: extra}
	if p.Probe != nil {
		cfg := p.Probe.Config()
		s.Probe = true
		s.ProbeSampleEvery = cfg.SampleEvery
		s.ProbeTrace = cfg.Trace
		s.ProbeMaxTraceEvents = cfg.MaxTraceEvents
	}
	return s
}

// JSON serializes the spec for embedding in a flight-recorder dump.
func (s SimSpec) JSON() ([]byte, error) { return json.Marshal(s) }

// Hash fingerprints the run, FNV-1a over its JSON: checkpoints and
// flight-recorder keyframes carry it, so a resume or replay under a
// different description is refused. It fails only when the spec has no
// JSON encoding (a non-finite rate, which Validate rejects).
func (s SimSpec) Hash() (uint64, error) {
	data, err := s.JSON()
	if err != nil {
		return 0, fmt.Errorf("core: hash sim spec: %w", err)
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

// ParseSpec decodes a spec serialized by JSON and range-checks it with
// Spec.Validate, so Rebuild never sizes a network or a packet from a
// corrupt or hostile dump.
func ParseSpec(data []byte) (SimSpec, error) {
	var s SimSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return SimSpec{}, fmt.Errorf("core: bad sim spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return SimSpec{}, err
	}
	return s, nil
}

// Rebuild assembles a fresh network exactly as the original run did —
// same topology, router config, measurement horizon, VC mask, and
// per-tile Bernoulli generators — positioned at cycle 0 and ready for a
// keyframe restore or a straight deterministic replay. It always attaches
// a probe of the recorded layout: the flight recorder that wrote the dump
// observes through one.
func (s SimSpec) Rebuild() (*network.Network, error) {
	if s.Kind != "run" {
		return nil, fmt.Errorf("core: %q runs are not rebuildable from a spec (client state is external); ring analysis and verdicts still work", s.Kind)
	}
	p := RunParams{
		Spec:   s.Spec,
		Shards: 1, // replay is sequential; results are shard-invariant
		Probe: telemetry.New(telemetry.Config{
			SampleEvery:    s.ProbeSampleEvery,
			Trace:          s.ProbeTrace,
			MaxTraceEvents: s.ProbeMaxTraceEvents,
		}),
	}
	n, err := BuildNetwork(p)
	if err != nil {
		return nil, fmt.Errorf("core: rebuild spec (k=%d, num_vcs=%d, buf_flits=%d): %w", s.K, s.NumVCs, s.BufFlits, err)
	}
	if _, err := attachRunClients(n, p, s); err != nil {
		return nil, err
	}
	return n, nil
}
