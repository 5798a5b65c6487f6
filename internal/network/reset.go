package network

// This file implements network arena pooling: Reset re-initializes a
// built network in place so a sweep campaign constructs its routers,
// links, ports, shard partitions, and phase schedule once and reuses them
// for every point. The invariant is Reset ≡ New: after Reset(seed,
// warmup) the network is state-for-state what New would have produced
// with those parameters (plus warm allocation caches — flit free lists,
// worklist capacity — which are semantically invisible). The golden tests
// hold a Reset network to byte-identical results against a fresh build.
//
// In-memory warm forks ride on the same machinery: Snapshot serialises
// the complete simulation state into a byte image (the checkpoint
// container without the file, fsync, or manifest), and Fork restores an
// image into a Reset-fresh network, so campaigns sharing a deterministic
// warmup prefix run it once and fork per branch.

// Reset re-initializes the network in place for a fresh run with the
// given seed and warmup horizon, recycling every in-flight flit and
// allocating nothing in steady state. Clients are detached (the next run
// attaches its own); phases appended after construction — checkpoint
// hooks, collectors, injectors — are truncated from the schedule; the
// configuration, wiring, shard partition, and route table survive. It
// returns Capabilities().Reset for configurations Reset cannot cover.
func (n *Network) Reset(seed, warmup int64) error {
	if err := n.caps.Reset; err != nil {
		return err
	}
	n.cfg.Seed, n.cfg.Warmup = seed, warmup
	n.kernel.Reset(seed)
	for _, r := range n.routers {
		r.Reset()
	}
	for i := range n.links {
		le := &n.links[i]
		le.l.Reset()
		le.tickedTo = 0
	}
	// Re-run the construction wiring pass: SetOutLink re-initializes the
	// sending router's credit counters (and credit mask) for each channel,
	// exactly as a fresh build does. Attachment and datelines are already
	// in place; only the credit state was zeroed by Router.Reset.
	for i := range n.links {
		le := &n.links[i]
		n.routers[le.from].SetOutLink(le.dir, le.l, n.cfg.Router.BufFlits)
	}
	for _, p := range n.ports {
		p.reset()
	}
	for i := range n.clients {
		n.clients[i] = nil
	}
	n.clientTiles = n.clientTiles[:0]
	n.recorder.Reset(warmup)
	n.faultMap.Reset()
	for i := range n.wdStarve {
		n.wdStarve[i] = 0
	}
	for i := range n.wdCredit {
		n.wdCredit[i] = false
	}
	n.nextID = 0
	n.rerouted, n.unroutable, n.aborted = 0, 0, 0
	n.routeHits, n.routeMisses = 0, 0
	for i := range n.onList {
		n.onList[i] = false
	}
	for i := range n.linkOn {
		n.linkOn[i] = false
	}
	n.utilTicks = 0
	for _, s := range n.shards {
		s.active = s.active[:0]
		s.activeLinks = s.activeLinks[:0]
		s.pendingLinks = s.pendingLinks[:0]
		s.pumpList = s.pumpList[:0]
		s.loopList = s.loopList[:0]
		s.credits = s.credits[:0]
		s.dones = s.dones[:0]
		s.delivered, s.deliveredFlits, s.injected, s.aborted = 0, 0, 0, 0
	}
	n.extras = n.extras[:0]
	n.pktObs = nil
	n.lastCkptCycle = -1
	n.ckptEvery = 0
	return nil
}
