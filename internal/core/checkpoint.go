package core

import (
	"errors"
	"fmt"
	"log"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/network"
	"repro/internal/sim"
)

// This file wires the checkpoint subsystem into the experiment layer:
// the end-of-cycle checkpointer phase that writes durable snapshots
// stamped with the run's SimSpec.Hash, the disk resume path that refuses
// a snapshot of a different run, and an in-memory save/rebuild/restore
// test mode (Options.ResumeAt) the determinism suite uses to prove that
// every experiment's outputs are identical whether or not the run was
// interrupted.

// keepCheckpoints is how many snapshot files Prune retains per directory:
// the newest plus fallbacks in case the newest is torn by a crash.
const keepCheckpoints = 3

// checkpointer is the end-of-cycle snapshot phase. It runs as the last
// serial phase of the kernel schedule, behind every merge barrier, where
// the simulation state is identical for any shard count.
type checkpointer struct {
	n      *network.Network
	dir    string
	every  int64
	stopAt int64 // no snapshots past the measurement horizon (drain tail)
	hash   uint64
	err    error // first failed write; surfaced when the run ends
}

func (c *checkpointer) phase(now sim.Cycle) {
	cycle := now + 1 // completed cycles once this cycle's phases finish
	if cycle%c.every != 0 || cycle > c.stopAt {
		return
	}
	data, err := c.n.SaveCheckpoint(c.hash, cycle)
	if err == nil {
		_, err = checkpoint.WriteFile(c.dir, cycle, data)
	}
	if err != nil {
		if c.err == nil {
			c.err = err
		}
		return
	}
	checkpoint.Prune(c.dir, keepCheckpoints)
	c.n.NoteCheckpoint(cycle)
}

// RunToHorizon advances a caller-assembled network to stopAt completed
// cycles under the checkpoint/resume policy in p (see runToHorizon). It
// is the entry point for command-line tools with bespoke client
// arrangements — e.g. nocsim's trace replay — whose state is not
// described by RunParams alone; id carries that identity (such as the
// trace file, in id.Extra) into the configuration hash. rebuild may be
// nil when the in-memory resume test mode is not wanted.
func RunToHorizon(n *network.Network, p RunParams, stopAt int64, id SimSpec, rebuild func() (*network.Network, error)) (*network.Network, error) {
	hash, err := id.Hash()
	if err != nil {
		return nil, err
	}
	return runToHorizon(n, p, stopAt, hash, rebuild)
}

// runToHorizon advances n to stopAt completed cycles, applying the
// checkpoint/resume machinery the run's parameters ask for:
//
//   - Resume: restore the newest valid snapshot from CheckpointDir
//     (start from scratch when the directory has none);
//   - CheckpointEvery: register the durable snapshot phase;
//   - Options.ResumeAt test mode (when rebuild is non-nil and disk
//     checkpointing is off): snapshot mid-run, rebuild, restore, continue.
//     A network that cannot be checkpointed (a client without checkpoint
//     state) runs straight through.
//
// It returns the network that reached the horizon — the original, or the
// rebuilt one in ResumeAt mode.
func runToHorizon(n *network.Network, p RunParams, stopAt int64, hash uint64, rebuild func() (*network.Network, error)) (*network.Network, error) {
	if p.Resume && p.CheckpointDir != "" {
		f, path, skipped, err := checkpoint.LoadLatestReport(p.CheckpointDir)
		for _, s := range skipped {
			log.Printf("core: resume skipped torn or corrupt checkpoint %s: %v", filepath.Join(p.CheckpointDir, s.Name), s.Err)
		}
		switch {
		case err == nil:
			if f.ConfigHash != hash {
				return nil, fmt.Errorf("core: checkpoint %s was written by a different configuration (hash %#x, want %#x)", path, f.ConfigHash, hash)
			}
			if err := n.RestoreCheckpoint(f); err != nil {
				return nil, fmt.Errorf("core: restore %s: %w", path, err)
			}
		case errors.Is(err, checkpoint.ErrNoCheckpoints):
			// Nothing to resume; run from scratch.
		default:
			return nil, err
		}
	}
	var ck *checkpointer
	if p.CheckpointEvery > 0 && p.CheckpointDir != "" {
		ck = &checkpointer{n: n, dir: p.CheckpointDir, every: p.CheckpointEvery, stopAt: stopAt, hash: hash}
		n.NoteCheckpointInterval(p.CheckpointEvery)
		n.Kernel().AddPhase("checkpoint", ck.phase)
	}
	if p.ResumeAt > 0 && rebuild != nil && ck == nil && n.Kernel().Now() == 0 {
		if mid := int64(p.ResumeAt * float64(stopAt)); mid > 0 && mid < stopAt {
			n.Run(mid)
			if snap, err := n.SaveCheckpoint(hash, mid); err == nil {
				f, err := checkpoint.Parse(snap)
				if err != nil {
					return nil, err
				}
				fresh, err := rebuild()
				if err != nil {
					return nil, err
				}
				if err := fresh.RestoreCheckpoint(f); err != nil {
					return nil, err
				}
				n = fresh
			}
		}
	}
	if remaining := stopAt - n.Kernel().Now(); remaining > 0 {
		n.Run(remaining)
	}
	if ck != nil && ck.err != nil {
		return nil, ck.err
	}
	return n, nil
}
