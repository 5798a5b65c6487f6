package network

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/flit"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// This file implements intra-cycle spatial parallelism: the network's
// tiles (router, port, client) and links are partitioned into contiguous
// shards, and every kernel phase runs its per-component work concurrently
// across shards with a barrier between phases (sim.AddShardedPhase).
//
// Correctness rests on what the five-phase staging discipline already
// guarantees for the sequential loop: within a phase, a router only reads
// neighbor state written in a *previous* phase (link pipes are filled in
// linkarb and drained in deliver; credits are queued in switcharb and
// delivered in deliver), so per-router work inside one phase is
// commutative. The only same-phase cross-shard effects are (a) credit
// returns surfacing at a link whose sending router lives in another shard,
// (b) link activations by a sender in another shard, (c) global recorder
// counters and delivered-packet records, and (d) lifecycle trace events;
// all are deferred into per-shard buffers and folded in at a phase
// barrier, so the post-barrier state is byte-identical to the sequential
// schedule for any shard count. Client Tick stays a serial phase: it
// assigns globally ordered packet ids (they appear in traces and goldens),
// and it is cheap — the expensive halves of the old clients phase, packet
// reassembly (eject) and injection arbitration (pump), do shard.
//
// Every phase body walks worklists in every configuration. Worklist order
// is not tile order, so ejectMerge sorts what a packet observer sees and
// the tracer's merge sorts a cycle's trace events; the wire layer draws
// each link's own stream, so its order does not matter.
//
// Every flit-recycling component (router, link, port) draws from its
// shard's own flit.Pool; Put fully zeroes a flit, so which pool a flit
// lives in is unobservable and flits may freely migrate between pools
// (injected from one shard's pool, delivered into another's).

// creditRet is one deferred cross-shard credit return, applied at the
// deliver barrier.
type creditRet struct {
	r   *router.Router
	dir route.Dir
	vc  int
}

// doneRec is one deferred packet delivery, applied to the recorder at the
// eject barrier. It captures the tail-flit fields packetDone (and the
// attached packet observer) reads, since the flit itself is recycled
// before the merge runs.
type doneRec struct {
	id            uint64
	birth, inject int64
	src, dst      int
	hops          int
	class, flow   int
	flits         int
}

// shardState is one shard's slice of the network plus its deferral
// buffers. All fields except the merge-drained buffers are touched only
// by the owning shard's worker (or single-threaded between barriers).
type shardState struct {
	id int

	// active is the shard's router worklist: tiles whose router holds at
	// least one flit. Routers join on flit acceptance and leave at the
	// route-phase sweep, so fully quiescent regions cost nothing in the
	// three router phases.
	active []int

	// activeLinks is the shard's link worklist (indexes into n.links,
	// owned by receiving tile): links join when their sender puts a flit
	// on the wires or their receiver hands them a credit, and leave at the
	// delivery sweep once Idle. An off-list link's wires are free, so it
	// has no busy cycle to count and nothing to settle on rejoining.
	activeLinks []int32

	// pendingLinks defers link activations whose receiver lives in
	// another shard (a send crosses the shard boundary); linkarbMerge
	// applies them behind the phase barrier.
	pendingLinks []int32

	// pumpList is the shard's port worklist for the pump phase: ports
	// with queued or in-progress injections (Port.injWork() > 0).
	// loopList is the matching worklist for pending loopback deliveries.
	// Both are maintained through Port.notePump/noteLoopback and swept by
	// their phase.
	pumpList []int32
	loopList []int32

	// pool recycles the flits created and destroyed by this shard's
	// components. flit.Pool is not concurrency-safe; per-shard ownership
	// is what keeps it that way.
	pool flit.Pool

	// Deferred cross-shard / global effects, drained by the merges.
	credits        []creditRet
	dones          []doneRec
	delivered      int64 // loopback packets (recorder.DeliveredPackets)
	deliveredFlits int64 // loopback flits (recorder.DeliveredFlits)
	injected       int64 // recorder.InjectedPackets

	// trace stages the lifecycle events this shard's routers, ports and
	// links record while tracing is on; pumpMerge merges every shard's
	// stage into the tracer once per cycle.
	trace telemetry.TraceStage
}

// initShards partitions the tiles into contiguous ranges, one per shard;
// each link belongs to the shard of its receiving tile. The count is
// Config.Shards clamped to [1, tiles].
func (n *Network) initShards() {
	tiles := n.topo.NumTiles()
	count := min(max(n.cfg.Shards, 1), tiles)
	n.shardOf = make([]int, tiles)
	n.onList = make([]bool, tiles)
	n.shards = make([]*shardState, count)
	for s := 0; s < count; s++ {
		for t := tiles * s / count; t < tiles*(s+1)/count; t++ {
			n.shardOf[t] = s
		}
		n.shards[s] = &shardState{id: s}
	}
}

// Shards reports the effective intra-cycle shard count the network runs
// with (1 = sequential): Config.Shards clamped to [1, tiles].
func (n *Network) Shards() int { return len(n.shards) }

// FlitsOutstanding reports pool-allocated flits currently alive anywhere
// in the network, summed across all shard pools (flits migrate between
// pools, so only the aggregate is meaningful). A drained network must
// report zero.
func (n *Network) FlitsOutstanding() int64 {
	var total int64
	for _, s := range n.shards {
		total += s.pool.Outstanding()
	}
	return total
}

// FlitsDrawn reports pool Get calls summed across all shard pools: how
// many flits the network has drawn since it was built. A leak check
// pairs it with FlitsOutstanding to show the pools were exercised.
func (n *Network) FlitsDrawn() int64 {
	var total int64
	for _, s := range n.shards {
		total += s.pool.Gets()
	}
	return total
}

// activate puts a tile's router on its shard's worklist. Safe to call
// repeatedly; the onList bit dedupes. Called by the owning shard's worker
// (flit acceptance is always shard-local) or from serial phases.
func (n *Network) activate(tile int) {
	if n.onList[tile] {
		return
	}
	n.onList[tile] = true
	s := n.shards[n.shardOf[tile]]
	s.active = append(s.active, tile)
}

// acceptAt hands a flit to a tile's router and keeps the worklist current.
func (n *Network) acceptAt(tile int, f *flit.Flit, from route.Dir) {
	n.routers[tile].AcceptFlit(f, from)
	n.activate(tile)
}

// activateLink puts a link on its owning (receiving) shard's worklist.
// Safe to call repeatedly; the linkOn bit dedupes. Must only be called by
// the owning shard's worker or from serial/merge phases.
func (n *Network) activateLink(i int32) {
	if n.linkOn[i] {
		return
	}
	n.linkOn[i] = true
	s := n.shards[n.shardOf[n.links[i].to]]
	s.activeLinks = append(s.activeLinks, i)
}

// deliverShard advances the shard's worklist links by one cycle: flits
// complete their traversal into in-shard routers, credits return to the
// sending router (inline when it is in-shard, deferred to the barrier
// otherwise). A link gone idle leaves the list, so quiescent regions cost
// nothing here.
func (n *Network) deliverShard(now sim.Cycle, si int) {
	s := n.shards[si]
	keep := s.activeLinks[:0]
	for _, i := range s.activeLinks {
		le := &n.links[i]
		if le.l.Idle() {
			n.linkOn[i] = false
			continue
		}
		keep = append(keep, i)
		if n.cfg.ElasticLinks {
			to, in := n.routers[le.to], le.dir.Opposite()
			f := le.l.DeliverElastic(func(f *flit.Flit) bool {
				return to.CanAccept(in, f.VC)
			})
			if f != nil {
				n.acceptAt(le.to, f, in)
			}
			continue
		}
		f, vc, credited := le.l.Deliver()
		if credited {
			if n.wdCredit != nil {
				n.wdCredit[i] = int64(now)
			}
			if n.shardOf[le.from] == si {
				n.routers[le.from].HandleCredit(le.dir, vc)
			} else {
				s.credits = append(s.credits, creditRet{n.routers[le.from], le.dir, vc})
			}
		}
		if f == nil {
			continue
		}
		if n.traceStages != nil && f.Type.IsHead() {
			n.probe.Links[i].TraceHead(int64(now), f.PacketID)
		}
		n.acceptAt(le.to, f, le.dir.Opposite())
	}
	s.activeLinks = keep
}

// deliverMerge applies the deferred cross-shard credit returns. Credit
// restoration is a commutative counter increment, so application order
// cannot affect state; shard order is used for reproducibility.
func (n *Network) deliverMerge(sim.Cycle) {
	for _, s := range n.shards {
		for _, cr := range s.credits {
			cr.r.HandleCredit(cr.dir, cr.vc)
		}
		s.credits = s.credits[:0]
	}
}

// routeShard runs route computation over the shard's worklist, sweeping
// out routers that have gone empty. Between this sweep and the next cycle
// only flit acceptance grows a router's occupancy, and acceptance
// re-activates, so the list always covers every non-empty router.
func (n *Network) routeShard(now sim.Cycle, si int) {
	s := n.shards[si]
	keep := s.active[:0]
	for _, tile := range s.active {
		r := n.routers[tile]
		if r.Occupancy() == 0 {
			n.onList[tile] = false
			continue
		}
		keep = append(keep, tile)
		r.RouteCompute(now)
	}
	s.active = keep
}

// linkarbShard runs link arbitration over the shard's worklist (for a
// deflection router, its whole hot-potato match). A link's sender is the
// only component touching it during this phase, so sending on a link owned
// by another shard (the receiver's) is race-free.
func (n *Network) linkarbShard(now sim.Cycle, si int) {
	s := n.shards[si]
	for _, tile := range s.active {
		r := n.routers[tile]
		if r.Occupancy() == 0 {
			continue
		}
		r.LinkArbitrate(now)
		n.wakeSent(s, tile, r.SentOutputs())
	}
}

// wakeSent wakes the links that tile's output ports in m (a router's
// packed sent mask) just put a flit on: in-shard receivers activate
// directly, cross-shard activations are deferred to linkarbMerge (the
// receiver's worklist belongs to another worker).
func (n *Network) wakeSent(s *shardState, tile int, m uint32) {
	for ; m != 0; m &= m - 1 {
		li := n.outLinkIdx[tile*router.NumPorts+bits.TrailingZeros32(m)]
		if li < 0 || n.linkOn[li] {
			continue
		}
		if n.shardOf[n.links[li].to] == s.id {
			n.activateLink(li)
		} else {
			s.pendingLinks = append(s.pendingLinks, li)
		}
	}
}

// linkarbMerge applies the deferred cross-shard link activations. Each
// link has exactly one sender, so no activation is pended twice; the
// linkOn re-check in activateLink makes the fold idempotent anyway.
func (n *Network) linkarbMerge(sim.Cycle) {
	for _, s := range n.shards {
		for _, li := range s.pendingLinks {
			n.activateLink(li)
		}
		s.pendingLinks = s.pendingLinks[:0]
	}
}

// switcharbShard runs switch arbitration over the shard's worklist and
// wakes the links carrying the freed-slot credits upstream; a credit
// travels on a link whose receiving tile is this router, so the
// activation is always in-shard.
func (n *Network) switcharbShard(now sim.Cycle, si int) {
	for _, tile := range n.shards[si].active {
		r := n.routers[tile]
		if r.Occupancy() == 0 {
			continue
		}
		r.SwitchArbitrate(now)
		n.wakeCredited(tile, r.CreditedInputs())
	}
}

// wakeCredited wakes the in-links of tile whose input ports in m (a
// router's packed credited mask) just handed their upstream link a credit.
func (n *Network) wakeCredited(tile int, m uint32) {
	for ; m != 0; m &= m - 1 {
		if li := n.inLinkIdx[tile*router.NumPorts+bits.TrailingZeros32(m)]; li >= 0 {
			n.activateLink(li)
		}
	}
}

// ejectShard delivers ejected flits to the shard's ports: reassembly,
// abort handling, and matured loopbacks, with recorder updates deferred
// to ejectMerge. Only routers on the worklist can hold eject-queue flits
// (the queue counts toward occupancy), and loopbacks keep their own
// worklist. A port still sees its ejected flits before its loopbacks.
func (n *Network) ejectShard(now sim.Cycle, si int) {
	s := n.shards[si]
	for _, tile := range s.active {
		if ejected := n.routers[tile].Eject(); len(ejected) > 0 {
			n.ports[tile].receive(ejected, now)
		}
	}
	keep := s.loopList[:0]
	for _, t := range s.loopList {
		p := n.ports[t]
		p.deliverLoopbacks(now)
		if len(p.loopback) == 0 {
			p.onLoop = false
			continue
		}
		keep = append(keep, t)
	}
	s.loopList = keep
}

// ejectMerge folds the shards' deferred deliveries into the recorder in
// shard order. The eject walk follows the active worklist, not tile order;
// the recorder does not care (every record of one cycle carries the same
// `now`, and its histograms and counters are multiset-valued), but an
// attached packet observer sees the sequence, so each shard's records are
// first stable-sorted by destination tile. That is tile order, the
// sequential schedule, for any shard count.
func (n *Network) ejectMerge(now sim.Cycle) {
	for _, s := range n.shards {
		if n.pktObs != nil {
			slices.SortStableFunc(s.dones, func(a, b doneRec) int { return cmp.Compare(a.dst, b.dst) })
		}
		for i := range s.dones {
			d := &s.dones[i]
			n.recorder.packetDoneRec(d.birth, d.inject, d.class, d.flow, d.flits, now)
			if n.pktObs != nil {
				n.obsScratch = PacketObservation{
					ID: d.id, Src: d.src, Dst: d.dst,
					Class: d.class, Flow: d.flow, Hops: d.hops, Flits: d.flits,
					Birth: d.birth, Inject: d.inject, Arrived: int64(now),
				}
				n.pktObs.PacketDelivered(&n.obsScratch)
			}
		}
		s.dones = s.dones[:0]
		n.recorder.DeliveredPackets += s.delivered
		n.recorder.DeliveredFlits += s.deliveredFlits
		s.delivered, s.deliveredFlits = 0, 0
	}
}

// clientsTick is the serial client phase: packet generation draws globally
// ordered packet ids (which appear in traces and goldens), so Tick runs on
// one goroutine in tile order, exactly as the sequential loop always has.
// The dense clientTiles list (ascending, maintained by AttachClient) keeps
// the walk proportional to attached clients, not tiles.
func (n *Network) clientsTick(now sim.Cycle) {
	for _, tile := range n.clientTiles {
		n.clients[tile].Tick(now, n.ports[tile])
	}
}

// pumpShard drives injection arbitration for the shard's ports. Only ports
// with queued or in-progress injections are on the worklist; a port whose
// work has drained leaves it and rejoins on the next Send. Injection
// effects are port-local (plus shard counters and the tile's own router),
// so worklist order is as good as tile order.
func (n *Network) pumpShard(now sim.Cycle, si int) {
	s := n.shards[si]
	keep := s.pumpList[:0]
	for _, t := range s.pumpList {
		p := n.ports[t]
		if p.injWork() == 0 {
			p.onPump = false
			continue
		}
		keep = append(keep, t)
		p.pump(now)
	}
	s.pumpList = keep
}

// pumpMerge folds the shards' injected-packet counts into the recorder
// and, when tracing, the cycle's staged lifecycle events into the tracer.
// Pump is the last network phase, so no staged event outlives its cycle:
// a checkpoint, a serial phase's own events and the next cycle all see
// the merged log.
func (n *Network) pumpMerge(sim.Cycle) {
	for _, s := range n.shards {
		n.recorder.InjectedPackets += s.injected
		s.injected = 0
	}
	if n.traceStages != nil {
		n.probe.Tracer().Merge(n.traceStages)
	}
}
