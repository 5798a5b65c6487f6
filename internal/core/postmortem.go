package core

// Post-mortem replay support for the flight recorder
// (internal/telemetry/flightrec): a run serializes a SimSpec — the
// complete recipe for rebuilding its network and clients — into every
// dump, and cmd/nocpost rebuilds from it to time-travel through the
// recorded window. Rebuild mirrors Run's build closure exactly (same
// generators, VC mask, measurement horizon), so a network rebuilt from a
// spec and advanced deterministically reproduces the original run byte
// for byte.

import (
	"encoding/json"
	"fmt"

	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// SimSpec is the serializable self-description of a run: every parameter
// that shapes simulation state, and nothing that doesn't (shard count,
// batching, checkpoint cadence, and observability attachments are all
// byte-identical knobs, so a replay may pick its own). The probe fields
// are included because an attached probe is itself checkpointed state — a
// keyframe restores into a rebuilt network only when the probe layout
// (series on/off, tracer on/off) matches.
type SimSpec struct {
	Kind string `json:"kind"` // "run", "campaign", or "trace"

	Topology       string  `json:"topology"`
	K              int     `json:"k"`
	Pattern        string  `json:"pattern"`
	Rate           float64 `json:"rate"`
	FlitsPerPacket int     `json:"flits_per_packet"`

	NumVCs         int  `json:"num_vcs"`
	BufFlits       int  `json:"buf_flits"`
	Mode           int  `json:"mode"`
	Deflect        bool `json:"deflect,omitempty"`
	ElasticLinks   bool `json:"elastic_links,omitempty"`
	Adaptive       bool `json:"adaptive,omitempty"`
	CutThrough     bool `json:"cut_through,omitempty"`
	NonSpeculative bool `json:"non_speculative,omitempty"`
	SerdesCycles   int  `json:"serdes_cycles,omitempty"`

	WarmupCycles  int64 `json:"warmup_cycles"`
	MeasureCycles int64 `json:"measure_cycles"`
	Seed          int64 `json:"seed"`

	Watchdog  int  `json:"watchdog,omitempty"`
	PhysWires bool `json:"phys_wires,omitempty"`
	ECC       bool `json:"ecc,omitempty"`

	ProbeSampleEvery    int64 `json:"probe_sample_every,omitempty"`
	ProbeTrace          bool  `json:"probe_trace,omitempty"`
	ProbeMaxTraceEvents int   `json:"probe_max_trace_events,omitempty"`
}

// SpecForRun captures the replay recipe for a run about to execute with
// p. kind is the client arrangement ("run" for Run's Bernoulli
// generators; "campaign" and "trace" record identity only — their client
// state is not rebuildable from parameters, so Rebuild refuses them).
func SpecForRun(kind string, p RunParams) SimSpec {
	s := SimSpec{
		Kind:           kind,
		Topology:       p.Topology,
		K:              p.K,
		Pattern:        p.Pattern,
		Rate:           p.Rate,
		FlitsPerPacket: p.FlitsPerPacket,
		NumVCs:         p.NumVCs,
		BufFlits:       p.BufFlits,
		Mode:           int(p.Mode),
		Deflect:        p.Deflect,
		ElasticLinks:   p.ElasticLinks,
		Adaptive:       p.Adaptive,
		CutThrough:     p.CutThrough,
		NonSpeculative: p.NonSpeculative,
		SerdesCycles:   p.SerdesCycles,
		WarmupCycles:   p.WarmupCycles,
		MeasureCycles:  p.MeasureCycles,
		Seed:           p.Seed,
		Watchdog:       p.Watchdog,
		PhysWires:      p.PhysWires,
		ECC:            p.ECC,
	}
	if p.Probe != nil {
		cfg := p.Probe.Config()
		s.ProbeSampleEvery = cfg.SampleEvery
		s.ProbeTrace = cfg.Trace
		s.ProbeMaxTraceEvents = cfg.MaxTraceEvents
	}
	return s
}

// JSON serializes the spec for embedding in a flight-recorder dump.
func (s SimSpec) JSON() ([]byte, error) { return json.Marshal(s) }

// maxSpecK bounds the radix a parsed spec may request. Rebuild builds k²
// routers from it, so a corrupt or hostile dump must not pick k freely;
// 128 (16384 tiles) is four times the largest die any experiment builds.
const maxSpecK = 128

// ParseSpec decodes a spec serialized by JSON, rejecting sizes Rebuild
// could not honour: a radix outside [1, maxSpecK] and negative VC or
// buffer counts (zero selects the router default).
func ParseSpec(data []byte) (SimSpec, error) {
	var s SimSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return SimSpec{}, fmt.Errorf("core: bad sim spec: %w", err)
	}
	if s.K < 1 || s.K > maxSpecK {
		return SimSpec{}, fmt.Errorf("core: sim spec radix k=%d outside [1, %d]", s.K, maxSpecK)
	}
	if s.NumVCs < 0 || s.BufFlits < 0 {
		return SimSpec{}, fmt.Errorf("core: sim spec has negative num_vcs (%d) or buf_flits (%d)", s.NumVCs, s.BufFlits)
	}
	return s, nil
}

// Params reconstructs the RunParams a spec describes (replay-neutral
// fields zero). The probe is rebuilt fresh when the original run had one.
func (s SimSpec) Params() RunParams {
	p := RunParams{
		Topology:       s.Topology,
		K:              s.K,
		Pattern:        s.Pattern,
		Rate:           s.Rate,
		FlitsPerPacket: s.FlitsPerPacket,
		NumVCs:         s.NumVCs,
		BufFlits:       s.BufFlits,
		Mode:           router.Mode(s.Mode),
		Deflect:        s.Deflect,
		ElasticLinks:   s.ElasticLinks,
		Adaptive:       s.Adaptive,
		CutThrough:     s.CutThrough,
		NonSpeculative: s.NonSpeculative,
		SerdesCycles:   s.SerdesCycles,
		WarmupCycles:   s.WarmupCycles,
		MeasureCycles:  s.MeasureCycles,
		Seed:           s.Seed,
		Watchdog:       s.Watchdog,
		PhysWires:      s.PhysWires,
		ECC:            s.ECC,
		Shards:         1, // replay is sequential; results are shard-invariant
	}
	if s.ProbeSampleEvery > 0 || s.ProbeTrace {
		p.Probe = telemetry.New(telemetry.Config{
			SampleEvery:    s.ProbeSampleEvery,
			Trace:          s.ProbeTrace,
			MaxTraceEvents: s.ProbeMaxTraceEvents,
		})
	} else {
		p.Probe = telemetry.New(telemetry.Config{})
	}
	return p
}

// Rebuild assembles a fresh network exactly as the original run's build
// closure did — same topology, router config, measurement horizon, VC
// mask, and per-tile Bernoulli generators — positioned at cycle 0 and
// ready for a keyframe restore or a straight deterministic replay.
func (s SimSpec) Rebuild() (*network.Network, error) {
	if s.Kind != "run" {
		return nil, fmt.Errorf("core: %q runs are not rebuildable from a spec (client state is external); ring analysis and verdicts still work", s.Kind)
	}
	p := s.Params()
	stopAt := p.WarmupCycles + p.MeasureCycles
	n, _, err := BuildNetwork(p)
	if err != nil {
		return nil, fmt.Errorf("core: rebuild spec (k=%d, num_vcs=%d, buf_flits=%d): %w", s.K, s.NumVCs, s.BufFlits, err)
	}
	pattern, err := traffic.ByName(p.Pattern, p.K, p.K)
	if err != nil {
		return nil, err
	}
	n.Recorder().MeasureUntil = stopAt
	mask := flit.VCMask(0xFF)
	if p.NumVCs > 0 && p.NumVCs < 8 {
		mask = flit.VCMask((1 << p.NumVCs) - 1)
	}
	for tile := 0; tile < n.Topology().NumTiles(); tile++ {
		g := traffic.NewGenerator(tile, pattern, p.Rate, p.FlitsPerPacket, mask, p.Seed)
		g.StopAt = stopAt
		n.AttachClient(tile, g)
	}
	return n, nil
}

// ConfigHash exposes the run-configuration fingerprint to the
// observability layer: the flight recorder stamps it on keyframes and
// dumps so nocpost rejects cross-configuration replay the same way the
// resume path rejects cross-configuration checkpoints.
func ConfigHash(kind string, p RunParams, extra string) uint64 {
	return configHash(kind, p, extra)
}
