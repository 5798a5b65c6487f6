package noc

import (
	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/topology"
)

// Core network types, re-exported from the implementation packages.
type (
	// Network is an assembled on-chip interconnection network.
	Network = network.Network
	// NetworkConfig parameterizes NewNetwork.
	NetworkConfig = network.Config
	// Port is the §2.1 reliable-datagram tile interface.
	Port = network.Port
	// Client is tile logic attached to a port.
	Client = network.Client
	// ClientFunc adapts a function to Client.
	ClientFunc = network.ClientFunc
	// Delivery is a reassembled packet handed to a client.
	Delivery = network.Delivery
	// Recorder accumulates latency/throughput/jitter measurements.
	Recorder = network.Recorder

	// RouterConfig parameterizes the §2.3 virtual-channel router.
	RouterConfig = router.Config
	// Topology is the tile connectivity and physical placement.
	Topology = topology.Topology
	// VCMask is the 8-bit virtual-channel mask of §2.1.
	VCMask = flit.VCMask

	// RunParams drives one measurement campaign.
	RunParams = core.RunParams
	// Options are the execution knobs of a run, sweep or experiment
	// (shard count, worker count, resume test mode); none changes a
	// result.
	Options = core.Options
	// RunResult is its outcome.
	RunResult = core.RunResult
	// Experiment is one paper-reproduction experiment (E1..E20).
	Experiment = core.Experiment
	// Table is an experiment's paper-vs-measured output.
	Table = core.Table
)

// NewNetwork assembles a network.
func NewNetwork(cfg NetworkConfig) (*Network, error) { return network.New(cfg) }

// NewMesh returns a kx×ky 2-D mesh topology.
func NewMesh(kx, ky int) (*topology.Mesh, error) { return topology.NewMesh(kx, ky) }

// NewFoldedTorus returns the paper's folded-torus topology (0,2,3,1 fold).
func NewFoldedTorus(kx, ky int) (*topology.FoldedTorus, error) {
	return topology.NewFoldedTorus(kx, ky)
}

// DefaultRouterConfig returns the paper's router parameters: eight virtual
// channels with four flits of buffering each, credit flow control.
func DefaultRouterConfig(id int) RouterConfig { return router.DefaultConfig(id) }

// MaskFor returns the VC mask with exactly virtual channel vc set.
func MaskFor(vc int) VCMask { return flit.MaskFor(vc) }

// DefaultRunParams returns the baseline measurement configuration.
func DefaultRunParams() RunParams { return core.DefaultRunParams() }

// Run executes one measurement campaign.
func Run(p RunParams) (RunResult, error) { return core.Run(p) }

// Experiments returns the full E1–E20 paper-reproduction suite.
func Experiments() []Experiment { return core.All() }

// ExperimentByID looks up one experiment.
func ExperimentByID(id string) (Experiment, error) { return core.ByID(id) }
