// Package core is the experiment layer of the reproduction: it assembles
// networks from high-level parameters, runs calibrated measurement
// campaigns (load–latency sweeps, energy accounting, jitter analysis), and
// implements one runner per experiment in DESIGN.md's E1–E20 index. The
// cmd/nocbench binary and the repository-level benchmarks are thin wrappers
// over this package.
package core

import (
	"fmt"
	"math"
	"path/filepath"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/circuits"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Options are the execution knobs of a run, a sweep or an experiment:
// how it executes, never what it measures, so every output is
// byte-identical at any setting and the configuration hash (SimSpec)
// ignores them. The zero value runs each network on the sequential loop,
// fans sweep points across GOMAXPROCS workers and runs straight through.
type Options struct {
	// Shards is the intra-cycle shard count of every network the call
	// builds (network.Config.Shards): 1 or less is the sequential loop.
	// Unlike Parallelism (across independent sweep points), sharding
	// parallelizes the phases within one simulation.
	Shards int

	// Parallelism is the worker-pool width of Sweep, SweepReplicated and
	// the multi-point experiments; 0 or less selects GOMAXPROCS. Each
	// point runs on its own network and kernel.
	Parallelism int

	// ResumeAt in (0, 1) is the in-memory resume test mode: every Run or
	// RunCampaign executes to ResumeAt x horizon, snapshots, rebuilds a
	// fresh network, restores the snapshot into it and continues there,
	// so the determinism suites can assert that resumed runs reproduce
	// golden outputs exactly. 0 runs straight through.
	ResumeAt float64
}

// newNetwork builds cfg with o's shard count. Every network this package
// builds goes through it, the experiments' hand-assembled configs too.
func (o Options) newNetwork(cfg network.Config) (*network.Network, error) {
	cfg.Shards = o.Shards
	return network.New(cfg)
}

// simulatedCycles accumulates the kernel cycles executed by Run and
// RunCampaign across all goroutines, so the CLIs can report simulated
// cycles per wall-clock second.
var simulatedCycles int64

// SimulatedCycles reports the total kernel cycles executed by this
// package's runners since process start.
func SimulatedCycles() int64 { return atomic.LoadInt64(&simulatedCycles) }

func countCycles(n int64) { atomic.AddInt64(&simulatedCycles, n) }

// Spec is the one list of run parameters that shape simulation state:
// two runs with equal Specs (and the same client arrangement and probe
// layout, see SimSpec) evolve identically. It serializes into
// flight-recorder dumps, and its JSON is what the configuration hash
// fingerprints, so a field added here is covered by replay, resume and
// the hash at once.
type Spec struct {
	Topology string `json:"topology"` // "torus" or "mesh"
	K        int    `json:"k"`        // radix (K x K tiles)

	NumVCs         int         `json:"num_vcs"`   // 0 selects the router default
	BufFlits       int         `json:"buf_flits"` // 0 selects the router default
	Mode           router.Mode `json:"mode"`
	ElasticLinks   bool        `json:"elastic_links,omitempty"`
	Adaptive       bool        `json:"adaptive,omitempty"`
	CutThrough     bool        `json:"cut_through,omitempty"`
	NonSpeculative bool        `json:"non_speculative,omitempty"`
	SerdesCycles   int         `json:"serdes_cycles,omitempty"`

	// Fault-tolerance options (§2.5 and the runtime fault subsystem).
	// Watchdog arms per-link credit-starvation detection with the given
	// threshold; PhysWires enables bit-level wire modelling (required for
	// transient flip injection); ECC protects each link with SECDED.
	Watchdog  int  `json:"watchdog,omitempty"`
	PhysWires bool `json:"phys_wires,omitempty"`
	ECC       bool `json:"ecc,omitempty"`

	Pattern        string  `json:"pattern"`          // traffic pattern name
	Rate           float64 `json:"rate"`             // offered flits/cycle/node
	FlitsPerPacket int     `json:"flits_per_packet"` // packet length

	WarmupCycles  int64 `json:"warmup_cycles"`
	MeasureCycles int64 `json:"measure_cycles"`

	Seed int64 `json:"seed"`
}

// maxSpecK bounds the radix a spec may request. Rebuild builds k²
// routers from it, so a corrupt or hostile dump must not pick k freely;
// 128 (16384 tiles) is four times the largest die any experiment builds.
const maxSpecK = 128

// maxSpecFlits caps a packet at the largest payload a trace file may
// carry (traffic.MaxTraceBytes, 32768 flits): the generators allocate
// one packet's payload per send.
const maxSpecFlits = traffic.MaxTraceBytes / flit.DataBytes

// Validate range-checks the spec: a radix the topology supports (torus
// k >= 3, mesh k >= 2, both at most maxSpecK), a finite rate in [0, 1],
// flits_per_packet in [1, maxSpecFlits], a known router mode, at most
// flit.NumVCs virtual channels, a measurement window of at least one
// cycle (the accepted rate divides by it) whose end, warmup plus measure,
// fits an int64, and no negative window or count. It also rejects a
// flits_per_packet the spec's flow control would refuse for every packet
// (network.Config.CheckPacketFlits), since such a run delivers nothing.
// Rules that combine only network fields (adaptive routing on a torus,
// the buffer-slot cap) stay with network.New, which enforces them for
// every caller.
func (s Spec) Validate() error {
	minK := 3
	switch s.Topology {
	case "torus":
	case "mesh":
		minK = 2
	default:
		return fmt.Errorf("core: spec topology %q (torus or mesh)", s.Topology)
	}
	switch {
	case s.K < minK || s.K > maxSpecK:
		return fmt.Errorf("core: spec radix k=%d outside [%d, %d] for a %s", s.K, minK, maxSpecK, s.Topology)
	case s.NumVCs < 0 || s.NumVCs > flit.NumVCs:
		return fmt.Errorf("core: spec num_vcs=%d outside [0, %d]", s.NumVCs, flit.NumVCs)
	case s.BufFlits < 0:
		return fmt.Errorf("core: spec has negative buf_flits (%d)", s.BufFlits)
	case !(s.Rate >= 0 && s.Rate <= 1): // also rejects NaN
		return fmt.Errorf("core: spec rate %g outside [0, 1] flits/cycle/node", s.Rate)
	case s.FlitsPerPacket < 1 || s.FlitsPerPacket > maxSpecFlits:
		return fmt.Errorf("core: spec flits_per_packet=%d outside [1, %d]", s.FlitsPerPacket, maxSpecFlits)
	case s.Mode != router.ModeVC && s.Mode != router.ModeDrop && s.Mode != router.ModeDeflect:
		return fmt.Errorf("core: spec mode %d is not a router mode", s.Mode)
	case s.WarmupCycles < 0 || s.MeasureCycles < 1:
		return fmt.Errorf("core: spec needs warmup_cycles >= 0 and measure_cycles >= 1; got %d, %d", s.WarmupCycles, s.MeasureCycles)
	case s.MeasureCycles > math.MaxInt64-s.WarmupCycles:
		return fmt.Errorf("core: spec window warmup_cycles + measure_cycles (%d + %d) overflows int64", s.WarmupCycles, s.MeasureCycles)
	case s.SerdesCycles < 0 || s.Watchdog < 0:
		return fmt.Errorf("core: spec has negative serdes_cycles (%d) or watchdog (%d)", s.SerdesCycles, s.Watchdog)
	}
	if err := s.CheckPacketFlits(s.FlitsPerPacket); err != nil {
		return fmt.Errorf("core: spec flits_per_packet=%d: %v", s.FlitsPerPacket, err)
	}
	return nil
}

// CheckPacketFlits reports an error when the spec's flow control cannot
// carry a packet of nf flits (network.Config.CheckPacketFlits).
func (s Spec) CheckPacketFlits(nf int) error {
	return (&network.Config{Router: s.routerConfig()}).CheckPacketFlits(nf)
}

// routerConfig is the router template the spec builds: the router
// defaults with the spec's VC count and buffer depth where set, and its
// flow-control fields.
func (s Spec) routerConfig() router.Config {
	rc := router.DefaultConfig(0)
	if s.NumVCs > 0 {
		rc.NumVCs = s.NumVCs
	}
	if s.BufFlits > 0 {
		rc.BufFlits = s.BufFlits
	}
	rc.Mode = s.Mode
	rc.NonSpeculative = s.NonSpeculative
	rc.CutThrough = s.CutThrough
	return rc
}

// vcMask is the VC mask the Bernoulli sources inject on: the first
// NumVCs channels (all eight when NumVCs is 0 or 8).
func (s Spec) vcMask() flit.VCMask {
	if s.NumVCs > 0 && s.NumVCs < 8 {
		return flit.VCMask((1 << s.NumVCs) - 1)
	}
	return flit.VCMask(0xFF)
}

// RunParams describes one simulation measurement: the Spec that shapes
// its state, and per-run knobs that leave results byte-identical.
type RunParams struct {
	Spec

	// Options are the execution knobs: the run's shard count and resume
	// test mode, and the worker count of a Sweep over it.
	Options

	// DrainBudget bounds the drain tail after the measurement horizon
	// (0 selects defaultDrainBudget). The drain runs after the last
	// checkpoint, so the budget is not part of the run's identity.
	DrainBudget int64

	// Probe, when non-nil, attaches the telemetry layer to the network
	// built for this run. The same probe must not be shared across
	// concurrent runs (Sweep); instrument a dedicated run instead.
	Probe *telemetry.Probe

	// OnNetwork, when non-nil, runs after the network is built and the
	// clients attached, before the first cycle — the attachment point for
	// the live observability service (telemetry/serve) and other
	// pre-run instrumentation. It receives the run's SimSpec, the
	// identity the run stamps on its checkpoints. Like Probe, it must
	// not be shared across concurrent runs.
	OnNetwork func(*network.Network, SimSpec) error

	// Crash-safe checkpointing (checkpoint.go). CheckpointEvery > 0 with
	// a CheckpointDir writes a durable snapshot of the full simulation
	// state every CheckpointEvery cycles; Resume restarts the run from
	// the newest valid snapshot in CheckpointDir (from scratch when the
	// directory holds none). A resumed run reproduces the uninterrupted
	// run's outputs byte for byte, at any shard count. None of the three
	// fields affects simulation results.
	CheckpointEvery int64
	CheckpointDir   string
	Resume          bool
}

// defaultDrainBudget is the drain tail when RunParams.DrainBudget is 0:
// at saturation the sources have stopped, so the network always empties
// well within it.
const defaultDrainBudget = 50000

func (p RunParams) drainBudget() int64 {
	if p.DrainBudget > 0 {
		return p.DrainBudget
	}
	return defaultDrainBudget
}

// DefaultRunParams returns the paper's baseline configuration under
// uniform random traffic.
func DefaultRunParams() RunParams {
	return RunParams{Spec: Spec{
		Topology:       "torus",
		K:              4,
		NumVCs:         8,
		BufFlits:       4,
		Pattern:        "uniform",
		Rate:           0.1,
		FlitsPerPacket: 1,
		WarmupCycles:   1000,
		MeasureCycles:  4000,
		Seed:           1,
	}}
}

// RunResult is the measured outcome of one run.
type RunResult struct {
	Params RunParams

	OfferedFlits  float64 // offered flits/cycle/node
	AcceptedFlits float64 // delivered flits/cycle/node in the window

	AvgLatency float64 // packet latency (birth -> delivery), cycles
	P50Latency int64
	P99Latency int64
	MaxLatency int64
	AvgNetLat  float64 // injection -> delivery

	LinkUtilMean float64
	LinkUtilMax  float64

	DroppedPackets int64

	HopEnergyJ    float64
	WireEnergyJ   float64
	EnergyPerFlit float64

	DeliveredPackets int64
}

// BuildTopology constructs the named topology.
func BuildTopology(name string, k int) (topology.Topology, error) {
	switch name {
	case "torus":
		return topology.NewFoldedTorus(k, k)
	case "mesh":
		return topology.NewMesh(k, k)
	default:
		return nil, fmt.Errorf("core: unknown topology %q", name)
	}
}

// PaperPowerModel returns the §3.1 energy model over low-swing wires.
func PaperPowerModel() power.Model {
	return power.DefaultModel(circuits.LowSwing(circuits.Process100nm()).EnergyPerBitMM)
}

// sharedTopology returns the immutable topology for (name, k) from the
// artifact cache. Topologies are pure geometry — every method is
// read-only — so one instance serves every network of the shape
// concurrently.
func sharedTopology(name string, k int) (topology.Topology, error) {
	v, err := artifact.Get(fmt.Sprintf("topology|%s|%d", name, k), func() (any, error) {
		return BuildTopology(name, k)
	})
	if err != nil {
		return nil, err
	}
	return v.(topology.Topology), nil
}

// sharedAdjacency returns the cached link adjacency list for a topology.
// The slice is shared read-only: network.New only iterates it.
func sharedAdjacency(name string, k int, topo topology.Topology) ([]topology.Link, error) {
	v, err := artifact.Get(fmt.Sprintf("adjacency|%s|%d", name, k), func() (any, error) {
		return topology.Links(topo), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]topology.Link), nil
}

// sharedRouteTable returns the cached route table for a topology. The
// table holds one word per coordinate offset, (2k−1)² words, so dies of
// every size share one through the artifact cache.
func sharedRouteTable(name string, k int, topo topology.Topology) (*route.Table, error) {
	v, err := artifact.Get(fmt.Sprintf("routetable|%s|%d", name, k), func() (any, error) {
		return route.BuildTable(topo, topo.NumTiles()), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*route.Table), nil
}

// BuildNetwork assembles the network for the given parameters, without
// clients attached.
func BuildNetwork(p RunParams) (*network.Network, error) {
	cfg, err := networkConfig(p)
	if err != nil {
		return nil, err
	}
	return p.newNetwork(cfg)
}

// networkConfig derives the network configuration for p: the shared
// topology, adjacency and route table and the router template. The shard
// count is Options.newNetwork's to set.
func networkConfig(p RunParams) (network.Config, error) {
	topo, err := sharedTopology(p.Topology, p.K)
	if err != nil {
		return network.Config{}, err
	}
	adj, err := sharedAdjacency(p.Topology, p.K, topo)
	if err != nil {
		return network.Config{}, err
	}
	table, err := sharedRouteTable(p.Topology, p.K, topo)
	if err != nil {
		return network.Config{}, err
	}
	return network.Config{
		Topo:         topo,
		Adjacency:    adj,
		RouteTable:   table,
		Router:       p.routerConfig(),
		SerdesCycles: p.SerdesCycles,
		ElasticLinks: p.ElasticLinks,
		Adaptive:     p.Adaptive,
		Warmup:       p.WarmupCycles,
		Seed:         p.Seed,
		Watchdog:     p.Watchdog,
		PhysWires:    p.PhysWires,
		ECC:          p.ECC,
		Probe:        p.Probe,
	}, nil
}

// attachRunClients attaches the Bernoulli generators for one measurement
// run to a freshly built network, sets the measurement window, and runs
// the OnNetwork hook with the run's identity id. The generators are
// returned in tile order so warm-fork replication can reseed them in
// place.
func attachRunClients(n *network.Network, p RunParams, id SimSpec) ([]*traffic.Generator, error) {
	pattern, err := traffic.ByName(p.Pattern, p.K, p.K)
	if err != nil {
		return nil, err
	}
	stopAt := p.WarmupCycles + p.MeasureCycles
	n.Recorder().MeasureUntil = stopAt
	mask := p.vcMask()
	gens := make([]*traffic.Generator, n.Topology().NumTiles())
	for tile := range gens {
		g := traffic.NewGenerator(tile, pattern, p.Rate, p.FlitsPerPacket, mask, p.Seed)
		g.StopAt = stopAt
		n.AttachClient(tile, g)
		gens[tile] = g
	}
	if p.OnNetwork != nil {
		if err := p.OnNetwork(n, id); err != nil {
			return nil, err
		}
	}
	return gens, nil
}

// collectResult reads the measurement window out of a drained network,
// and the whole run's energy out of its activity counters.
func collectResult(n *network.Network, p RunParams, topo topology.Topology) RunResult {
	rec := n.Recorder()
	res := RunResult{
		Params:           p,
		OfferedFlits:     p.Rate,
		AcceptedFlits:    float64(rec.WindowFlits) / float64(p.MeasureCycles) / float64(topo.NumTiles()),
		AvgLatency:       rec.PacketLatency.Mean(),
		P50Latency:       rec.PacketLatency.Median(),
		P99Latency:       rec.PacketLatency.P99(),
		MaxLatency:       rec.PacketLatency.Max(),
		AvgNetLat:        rec.NetworkLatency.Mean(),
		LinkUtilMean:     linkUtilMean(n),
		LinkUtilMax:      n.MaxLinkUtilization(),
		DeliveredPackets: rec.DeliveredPackets,
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		res.DroppedPackets += n.Router(tile).Stats.DroppedPackets
	}
	res.HopEnergyJ, res.WireEnergyJ = PaperPowerModel().ActivityEnergy(n.Activity())
	if rec.DeliveredFlits > 0 {
		res.EnergyPerFlit = (res.HopEnergyJ + res.WireEnergyJ) / float64(rec.DeliveredFlits)
	}
	return res
}

// Run executes one measurement: Bernoulli generators on every tile at the
// offered rate, a warmup, a measurement window, and a drain tail so
// measured packets complete.
func Run(p RunParams) (RunResult, error) {
	id := p.SimSpec("run", "")
	hash, err := id.Hash()
	if err != nil {
		return RunResult{}, err
	}
	cfg, err := networkConfig(p)
	if err != nil {
		return RunResult{}, err
	}
	build := func() (*network.Network, error) {
		n, err := p.newNetwork(cfg)
		if err == nil {
			_, err = attachRunClients(n, p, id)
		}
		return n, err
	}
	n, err := build()
	if err != nil {
		return RunResult{}, err
	}
	topo := n.Topology()
	n, err = runToHorizon(n, p, p.WarmupCycles+p.MeasureCycles, hash, build)
	if err != nil {
		return RunResult{}, err
	}
	// Drain so that in-flight measured packets finish.
	n.Drain(p.drainBudget())
	countCycles(n.Kernel().Now())
	return collectResult(n, p, topo), nil
}

func linkUtilMean(n *network.Network) float64 {
	s := n.LinkUtilization()
	return s.Mean()
}

// SweepPoint is one point of a load–latency curve.
type SweepPoint struct {
	Rate   float64
	Result RunResult
}

// Sweep runs the same configuration across offered rates. Points run
// concurrently on base.Parallelism workers; each owns an independent
// network, kernel, and seed, so the table is bit-identical to a
// sequential sweep and ordered by rate as given.
//
// When base.CheckpointDir is set, every point checkpoints into its own
// point-NNN subdirectory, so an interrupted sweep resumes each point from
// that point's newest snapshot.
func Sweep(base RunParams, rates []float64) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(rates))
	err := sim.ForEach(len(rates), base.Parallelism, func(i int) error {
		p := base
		p.Rate = rates[i]
		if p.CheckpointDir != "" {
			p.CheckpointDir = filepath.Join(base.CheckpointDir, fmt.Sprintf("point-%03d", i))
		}
		res, err := Run(p)
		if err != nil {
			return err
		}
		out[i] = SweepPoint{Rate: rates[i], Result: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SaturationRate estimates the saturation throughput from a sweep: the
// highest value among its points, where a point that accepts at least 90%
// of its offered rate stands for that offered rate, one that accepts at
// most 80% for its accepted rate (past saturation the accepted rate is
// the ceiling), and one in between for the linear blend of the two, so
// the estimate moves continuously as a point crosses the threshold.
func SaturationRate(points []SweepPoint) float64 {
	sat := 0.0
	for _, pt := range points {
		acc, w := pt.Result.AcceptedFlits, 0.0
		if pt.Rate > 0 {
			w = min(max((acc/pt.Rate-0.8)/0.1, 0), 1)
		}
		sat = max(sat, acc+w*(pt.Rate-acc))
	}
	return sat
}
