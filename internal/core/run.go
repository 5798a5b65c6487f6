// Package core is the experiment layer of the reproduction: it assembles
// networks from high-level parameters, runs calibrated measurement
// campaigns (load–latency sweeps, energy accounting, jitter analysis), and
// implements one runner per experiment in DESIGN.md's E1–E19 index. The
// cmd/nocbench binary and the repository-level benchmarks are thin wrappers
// over this package.
package core

import (
	"fmt"
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

// parallelism is the worker-pool width used by Sweep and the multi-point
// experiments; 0 selects sim.DefaultParallelism() (GOMAXPROCS).
var parallelism int64

// SetParallelism sets the number of simulations run concurrently by Sweep
// and the multi-point experiments. n <= 0 restores the default
// (GOMAXPROCS). Each point always runs on its own network and kernel, so
// the results are identical at any parallelism.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	atomic.StoreInt64(&parallelism, int64(n))
}

// Parallelism reports the current worker-pool width (0 = GOMAXPROCS).
func Parallelism() int { return int(atomic.LoadInt64(&parallelism)) }

// shards is the default intra-cycle shard count for networks built by this
// package: 1 (sequential) unless overridden by SetShards or per-run via
// RunParams.Shards. Unlike parallelism (across independent sweep points),
// sharding parallelizes the phases *within* one simulation, with
// byte-identical results (see internal/network/shard.go).
var shards int64 = 1

// SetShards sets the default intra-cycle shard count for subsequently
// built networks. 0 selects GOMAXPROCS, 1 restores the sequential loop;
// n < 0 is clamped to 1.
func SetShards(n int) {
	if n < 0 {
		n = 1
	}
	atomic.StoreInt64(&shards, int64(n))
}

// Shards reports the default intra-cycle shard count (0 = GOMAXPROCS).
func Shards() int { return int(atomic.LoadInt64(&shards)) }

// batchEpochs is the default epoch-batching cap for networks built by
// this package: 0 defers to the network default
// (network.DefaultBatchEpochs), negative disables batching.
var batchEpochs int64

// SetBatchEpochs sets the default epoch-batching cap for subsequently
// built networks (see network.Config.BatchEpochs). 0 restores the
// network default; n < 0 disables batching. Batching only engages on
// sharded runs and never changes results.
func SetBatchEpochs(n int) { atomic.StoreInt64(&batchEpochs, int64(n)) }

// BatchEpochs reports the default epoch-batching cap (0 = network
// default, negative = off).
func BatchEpochs() int { return int(atomic.LoadInt64(&batchEpochs)) }

// simulatedCycles accumulates the kernel cycles executed by Run and
// RunCampaign across all goroutines, so the CLIs can report simulated
// cycles per wall-clock second.
var simulatedCycles int64

// SimulatedCycles reports the total kernel cycles executed by this
// package's runners since process start (or the last Reset).
func SimulatedCycles() int64 { return atomic.LoadInt64(&simulatedCycles) }

// ResetSimulatedCycles zeroes the simulated-cycle counter.
func ResetSimulatedCycles() { atomic.StoreInt64(&simulatedCycles, 0) }

func countCycles(n int64) { atomic.AddInt64(&simulatedCycles, n) }

// RunParams describes one simulation measurement.
type RunParams struct {
	Topology string // "torus" or "mesh"
	K        int    // radix (K x K tiles)

	Pattern        string  // traffic pattern name
	Rate           float64 // offered flits/cycle/node
	FlitsPerPacket int

	NumVCs         int
	BufFlits       int
	Mode           router.Mode
	Deflect        bool
	ElasticLinks   bool
	Adaptive       bool
	CutThrough     bool
	NonSpeculative bool
	SerdesCycles   int

	WarmupCycles  int64
	MeasureCycles int64
	DrainBudget   int64

	Seed    int64
	Metered bool

	// Fault-tolerance options (§2.5 and the runtime fault subsystem).
	// Watchdog arms per-link credit-starvation detection with the given
	// threshold; PhysWires enables bit-level wire modelling (required for
	// transient flip injection); ECC protects each link with SECDED.
	Watchdog  int
	PhysWires bool
	ECC       bool

	// Probe, when non-nil, attaches the telemetry layer to the network
	// built for this run. The same probe must not be shared across
	// concurrent runs (Sweep); instrument a dedicated run instead.
	Probe *telemetry.Probe

	// Shards is the intra-cycle shard count for this run's network
	// (network.Config.Shards): 0 defers to the package default
	// (SetShards), negative means GOMAXPROCS explicitly. Results are
	// byte-identical at any shard count.
	Shards int

	// BatchEpochs caps how many cycles a sharded run folds into one
	// barrier epoch while the network is near-quiescent
	// (network.Config.BatchEpochs): 0 defers to the package default
	// (SetBatchEpochs), negative disables batching. Results are
	// byte-identical at any setting.
	BatchEpochs int

	// OnNetwork, when non-nil, runs after the network is built and the
	// clients attached, before the first cycle — the attachment point for
	// the live observability service (telemetry/serve) and other
	// pre-run instrumentation. Like Probe, it must not be shared across
	// concurrent runs.
	OnNetwork func(*network.Network) error

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

// DefaultRunParams returns the paper's baseline configuration under
// uniform random traffic.
func DefaultRunParams() RunParams {
	return RunParams{
		Topology:       "torus",
		K:              4,
		Pattern:        "uniform",
		Rate:           0.1,
		FlitsPerPacket: 1,
		NumVCs:         8,
		BufFlits:       4,
		WarmupCycles:   1000,
		MeasureCycles:  4000,
		DrainBudget:    50000,
		Seed:           1,
	}
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
	Deflections    int64

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
func BuildNetwork(p RunParams) (*network.Network, *power.Meter, error) {
	cfg, err := networkConfig(p)
	if err != nil {
		return nil, nil, err
	}
	n, err := network.New(cfg)
	return n, cfg.Meter, err
}

// networkConfig derives the network configuration for p: the shared
// topology, adjacency and route table, the router template, a fresh power
// meter for metered runs, and the package shard and batching defaults
// resolved.
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
	rc := router.DefaultConfig(0)
	if p.NumVCs > 0 {
		rc.NumVCs = p.NumVCs
	}
	if p.BufFlits > 0 {
		rc.BufFlits = p.BufFlits
	}
	rc.Mode = p.Mode
	rc.NonSpeculative = p.NonSpeculative
	rc.CutThrough = p.CutThrough
	var meter *power.Meter
	if p.Metered {
		meter = power.NewMeter(PaperPowerModel())
	}
	sh := p.Shards
	if sh == 0 {
		sh = Shards()
	}
	if sh < 0 {
		sh = 0 // explicit GOMAXPROCS request -> network auto
	}
	be := p.BatchEpochs
	if be == 0 {
		be = BatchEpochs()
	}
	return network.Config{
		Topo:         topo,
		Adjacency:    adj,
		RouteTable:   table,
		Router:       rc,
		Shards:       sh,
		BatchEpochs:  be,
		SerdesCycles: p.SerdesCycles,
		Deflect:      p.Deflect,
		ElasticLinks: p.ElasticLinks,
		Adaptive:     p.Adaptive,
		Meter:        meter,
		Warmup:       p.WarmupCycles,
		Seed:         p.Seed,
		Watchdog:     p.Watchdog,
		PhysWires:    p.PhysWires,
		ECC:          p.ECC,
		Probe:        p.Probe,
	}, nil
}

// attachRunClients attaches the Bernoulli generators for one measurement
// run to an already-built (or arena-reset) network, sets the measurement
// window, and runs the OnNetwork hook. The generators are returned in
// tile order so warm-fork replication can reseed them in place.
func attachRunClients(n *network.Network, p RunParams, stopAt int64) ([]*traffic.Generator, error) {
	pattern, err := traffic.ByName(p.Pattern, p.K, p.K)
	if err != nil {
		return nil, err
	}
	n.Recorder().MeasureUntil = stopAt
	mask := flit.VCMask(0xFF)
	if p.NumVCs > 0 && p.NumVCs < 8 {
		mask = flit.VCMask((1 << p.NumVCs) - 1)
	}
	gens := make([]*traffic.Generator, n.Topology().NumTiles())
	for tile := range gens {
		g := traffic.NewGenerator(tile, pattern, p.Rate, p.FlitsPerPacket, mask, p.Seed)
		g.StopAt = stopAt
		n.AttachClient(tile, g)
		gens[tile] = g
	}
	if p.OnNetwork != nil {
		if err := p.OnNetwork(n); err != nil {
			return nil, err
		}
	}
	return gens, nil
}

// collectResult reads the measurement window out of a drained network.
func collectResult(n *network.Network, meter *power.Meter, p RunParams, topo topology.Topology) RunResult {
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
		if r := n.Router(tile); r != nil {
			res.DroppedPackets += r.Stats.DroppedPackets
		}
	}
	if meter != nil {
		res.HopEnergyJ = meter.HopEnergyJ
		res.WireEnergyJ = meter.WireEnergyJ
		if rec.DeliveredFlits > 0 {
			res.EnergyPerFlit = meter.TotalJ() / float64(rec.DeliveredFlits)
		}
	}
	return res
}

// Run executes one measurement: Bernoulli generators on every tile at the
// offered rate, a warmup, a measurement window, and a drain tail so
// measured packets complete.
func Run(p RunParams) (RunResult, error) {
	stopAt := p.WarmupCycles + p.MeasureCycles
	attach := func(n *network.Network) error {
		_, err := attachRunClients(n, p, stopAt)
		return err
	}
	cfg, err := networkConfig(p)
	if err != nil {
		return RunResult{}, err
	}
	n, release, err := acquireNetwork(p, cfg)
	if err != nil {
		return RunResult{}, err
	}
	defer release()
	if err := attach(n); err != nil {
		return RunResult{}, err
	}
	topo := n.Topology()
	n, err = runToHorizon(n, p, stopAt, configHash("run", p, ""),
		func() (*network.Network, error) {
			n2, err := network.New(cfg)
			if err == nil {
				err = attach(n2)
			}
			return n2, err
		}, attach)
	if err != nil {
		return RunResult{}, err
	}
	// Drain so that in-flight measured packets finish. At saturation the
	// sources have stopped, so the network always empties.
	drain := p.DrainBudget
	if drain <= 0 {
		drain = 50000
	}
	n.Drain(drain)
	countCycles(n.Kernel().Now())
	return collectResult(n, cfg.Meter, p, topo), nil
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
// concurrently on the SetParallelism worker pool; each owns an
// independent network, kernel, and seed, so the table is bit-identical to
// a sequential sweep and ordered by rate as given.
//
// When base.CheckpointDir is set, every point checkpoints into its own
// point-NNN subdirectory, so an interrupted sweep resumes each point from
// that point's newest snapshot.
func Sweep(base RunParams, rates []float64) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(rates))
	err := sim.ForEach(len(rates), Parallelism(), func(i int) error {
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
// highest offered rate the network still accepts within 10%, interpolated
// from the accepted-throughput ceiling beyond it.
func SaturationRate(points []SweepPoint) float64 {
	sat := 0.0
	for _, pt := range points {
		if pt.Result.AcceptedFlits >= 0.9*pt.Rate {
			if pt.Result.AcceptedFlits > sat {
				sat = pt.Rate
			}
		} else if pt.Result.AcceptedFlits > sat {
			// Past saturation the accepted rate itself is the ceiling.
			sat = pt.Result.AcceptedFlits
		}
	}
	return sat
}
