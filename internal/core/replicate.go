package core

import (
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// This file is the warm-fork campaign engine. A measurement campaign
// that wants confidence intervals runs the same configuration several
// times with different measurement-traffic seeds — but every replica
// shares the identical deterministic warmup (same network, same warmup
// seed). Instead of paying warmup × replicas, RunReplicated runs the
// warmup once, snapshots the network in memory (no file, no CRC
// sidecar, no fsync), and forks each replica from the snapshot: build a
// fresh network, restore the snapshot, reseed the generators onto the
// replica's stream, and run only the measurement window. Replica 0 keeps
// the warmup generators' streams, so its result is byte-identical to an
// uninterrupted Run of the same parameters.

// replicaSeed derives replica r's measurement-traffic seed from the
// run's base seed. Replica 0 is the base stream itself (continuing the
// warmup draws, exactly as an unforked run would).
func replicaSeed(seed int64, r int) int64 {
	if r == 0 {
		return seed
	}
	return seed ^ (int64(r) * 0x7F4A7C159E3779B9)
}

// MaxReplicas bounds RunReplicated's replica count, which sizes its
// result slice before the first replica runs.
const MaxReplicas = 1 << 16

// RunReplicated executes one warmup and replicas measurement windows of
// the configuration, forking each replica from an in-memory snapshot
// taken at the end of warmup. Replica 0 reproduces Run(p) byte for
// byte; replicas 1..n-1 draw independent measurement traffic from
// replicaSeed streams. replicas <= 1 delegates to Run, and more than
// MaxReplicas is an error. Disk checkpointing fields are not supported
// (the engine is in-memory by design). Configurations that cannot fork
// return an error wrapping the reason: the network's
// Capabilities.Checkpoint, since Fork restores a snapshot, or a probe or
// OnNetwork hook, which observe one network.
func RunReplicated(p RunParams, replicas int) ([]RunResult, error) {
	if replicas > MaxReplicas {
		return nil, fmt.Errorf("core: %d replicas exceeds the cap of %d", replicas, MaxReplicas)
	}
	if replicas <= 1 {
		res, err := Run(p)
		if err != nil {
			return nil, err
		}
		return []RunResult{res}, nil
	}
	if p.CheckpointEvery > 0 || p.CheckpointDir != "" || p.Resume {
		return nil, fmt.Errorf("core: RunReplicated is in-memory only; disk checkpointing fields must be unset")
	}
	cfg, err := networkConfig(p)
	if err != nil {
		return nil, err
	}
	var refusal error
	switch caps := network.CapabilitiesOf(cfg); {
	case caps.Checkpoint != nil:
		refusal = caps.Checkpoint
	case p.Probe != nil:
		refusal = errors.New("telemetry probes observe one network")
	case p.OnNetwork != nil:
		refusal = errors.New("OnNetwork hooks attach per-run state")
	}
	if refusal != nil {
		return nil, fmt.Errorf("core: configuration cannot warm-fork: %w", refusal)
	}
	id := p.SimSpec("run", "")
	hash, err := id.Hash()
	if err != nil {
		return nil, err
	}
	build := func() (*network.Network, []*traffic.Generator, error) {
		n, err := network.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		gens, err := attachRunClients(n, p, id)
		return n, gens, err
	}
	n, _, err := build()
	if err != nil {
		return nil, err
	}
	if p.WarmupCycles > 0 {
		n.Run(p.WarmupCycles)
		countCycles(p.WarmupCycles)
	}
	snap, err := n.Snapshot(hash)
	if err != nil {
		return nil, err
	}
	topo := n.Topology()
	stopAt := p.WarmupCycles + p.MeasureCycles
	out := make([]RunResult, 0, replicas)
	for r := 0; r < replicas; r++ {
		if r > 0 {
			var gens []*traffic.Generator
			if n, gens, err = build(); err != nil {
				return nil, err
			}
			if err := n.Fork(snap, hash); err != nil {
				return nil, err
			}
			seed := replicaSeed(p.Seed, r)
			for _, g := range gens {
				g.Reseed(seed)
			}
		}
		start := n.Kernel().Now()
		if remaining := stopAt - start; remaining > 0 {
			n.Run(remaining)
		}
		n.Drain(p.drainBudget())
		countCycles(n.Kernel().Now() - start)
		res := collectResult(n, p, topo)
		res.Params.Seed = replicaSeed(p.Seed, r)
		out = append(out, res)
	}
	return out, nil
}

// ReplicatedPoint is one rate of a replicated load–latency sweep.
type ReplicatedPoint struct {
	Rate     float64
	Replicas []RunResult
}

// Mean averages the replicas' headline figures into one RunResult
// (latency maxima take the max across replicas; packet counts sum).
func (pt ReplicatedPoint) Mean() RunResult {
	if len(pt.Replicas) == 0 {
		return RunResult{}
	}
	m := pt.Replicas[0]
	if len(pt.Replicas) == 1 {
		return m
	}
	k := float64(len(pt.Replicas))
	var acc, lat, net, um, ux float64
	var p50, p99, max, dropped, delivered int64
	for _, r := range pt.Replicas {
		acc += r.AcceptedFlits
		lat += r.AvgLatency
		net += r.AvgNetLat
		um += r.LinkUtilMean
		if r.LinkUtilMax > ux {
			ux = r.LinkUtilMax
		}
		p50 += r.P50Latency
		p99 += r.P99Latency
		if r.MaxLatency > max {
			max = r.MaxLatency
		}
		dropped += r.DroppedPackets
		delivered += r.DeliveredPackets
	}
	m.AcceptedFlits = acc / k
	m.AvgLatency = lat / k
	m.AvgNetLat = net / k
	m.LinkUtilMean = um / k
	m.LinkUtilMax = ux
	m.P50Latency = p50 / int64(len(pt.Replicas))
	m.P99Latency = p99 / int64(len(pt.Replicas))
	m.MaxLatency = max
	m.DroppedPackets = dropped
	m.DeliveredPackets = delivered
	return m
}

// SweepReplicated runs a replicated measurement at every rate. Points
// run concurrently on the SetParallelism worker pool, each building its
// own networks; within a point the replicas fork serially from the
// shared warmup snapshot. With replicas <= 1 each point is a plain Run
// (and disk checkpointing, if configured, applies as in Sweep).
func SweepReplicated(base RunParams, rates []float64, replicas int) ([]ReplicatedPoint, error) {
	out := make([]ReplicatedPoint, len(rates))
	err := sim.ForEach(len(rates), Parallelism(), func(i int) error {
		p := base
		p.Rate = rates[i]
		if replicas <= 1 && p.CheckpointDir != "" {
			p.CheckpointDir = filepath.Join(base.CheckpointDir, fmt.Sprintf("point-%03d", i))
		}
		rs, err := RunReplicated(p, replicas)
		if err != nil {
			return err
		}
		out[i] = ReplicatedPoint{Rate: rates[i], Replicas: rs}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
