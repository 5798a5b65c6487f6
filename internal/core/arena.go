package core

import (
	"errors"
	"sync"

	"repro/internal/network"
)

// This file is the network arena: a per-shape pool of fully built
// networks that Run (and the replicated sweep runners) re-initialize in
// place with network.Reset instead of rebuilding from scratch. Building
// a network allocates every router, VC buffer, link pipeline, and port
// pool; for a campaign that runs hundreds of points over one shape, that
// construction cost — and the allocator and GC pressure behind it — is
// pure overhead after the first point. A pooled network is Reset on
// acquire, so a dirty release (a run abandoned mid-flight by the resume
// test mode, say) can never leak state into the next run.

// arenaMaxPerKey caps how many idle networks one shape retains; beyond
// it, released networks are dropped for the GC. The cap bounds resident
// memory when a highly parallel sweep fans wider than later phases need.
const arenaMaxPerKey = 32

var arena struct {
	sync.Mutex
	pools map[arenaKey][]*network.Network
}

// arenaKey is a poolable network's shape: the NetShape it was built from
// and the resolved shard/batching layout (kernel.Reset preserves the
// shard structure, so differently sharded networks must not share a
// pool). Seed, warmup, rate, and checkpoint policy are per-run state that
// network.Reset re-establishes. Features that withdraw Reset never reach
// a key: arenaRefusal turns those runs away first.
type arenaKey struct {
	NetShape
	shards, batch int
}

// arenaRefusal reports why a run's network may not come from (and return
// to) the arena, or nil: the configuration's Capabilities.Reset, or an
// OnNetwork hook, whose attachments live for one run.
func arenaRefusal(p RunParams, cfg network.Config) error {
	if err := network.CapabilitiesOf(cfg).Reset; err != nil {
		return err
	}
	if p.OnNetwork != nil {
		return errors.New("OnNetwork hooks attach per-run state")
	}
	return nil
}

// acquireNetwork returns a client-less network built from cfg (p's
// networkConfig) — re-initialized in place from the arena when one of the
// right shape is idle, freshly built otherwise — together with a release
// function that parks a poolable network for reuse. release is safe to
// call exactly once, at any point after the run is finished with the
// network.
func acquireNetwork(p RunParams, cfg network.Config) (*network.Network, func(), error) {
	if arenaRefusal(p, cfg) != nil {
		n, err := network.New(cfg)
		return n, func() {}, err
	}
	key := arenaKey{p.NetShape, cfg.Shards, cfg.BatchEpochs}
	arena.Lock()
	pool := arena.pools[key]
	var n *network.Network
	if len(pool) > 0 {
		n = pool[len(pool)-1]
		pool[len(pool)-1] = nil
		arena.pools[key] = pool[:len(pool)-1]
	}
	arena.Unlock()
	if n == nil {
		var err error
		if n, err = network.New(cfg); err != nil {
			return nil, nil, err
		}
	} else if err := n.Reset(p.Seed, p.WarmupCycles); err != nil {
		return nil, nil, err
	}
	return n, func() {
		arena.Lock()
		if arena.pools == nil {
			arena.pools = make(map[arenaKey][]*network.Network)
		}
		if len(arena.pools[key]) < arenaMaxPerKey {
			arena.pools[key] = append(arena.pools[key], n)
		}
		arena.Unlock()
	}, nil
}

// DrainArena empties the arena, for tests and benchmarks that need to
// measure cold-build behaviour or release the pooled memory.
func DrainArena() {
	arena.Lock()
	arena.pools = nil
	arena.Unlock()
}
