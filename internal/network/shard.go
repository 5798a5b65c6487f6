package network

import (
	"math/bits"
	"runtime"

	"repro/internal/flit"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/sim"
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
// returns surfacing at a link whose sending router lives in another shard
// and (b) global recorder counters; both are deferred into per-shard
// buffers and folded in at the phase barrier, in shard order — which is
// tile order — so the post-barrier state is byte-identical to the
// sequential schedule for any shard count. Client Tick stays a serial
// phase: it assigns globally ordered packet ids (they appear in traces and
// goldens), and it is cheap — the expensive halves of the old clients
// phase, packet reassembly (eject) and injection arbitration (pump), do
// shard.
//
// Every flit-recycling component (router, link, port) draws from its
// shard's own flit.Pool; Put fully zeroes a flit, so which pool a flit
// lives in is unobservable and flits may freely migrate between pools
// (injected from one shard's pool, delivered into another's).

// shardLink is one link owned by a shard. Ownership follows the receiving
// tile (le.to), which makes flit acceptance and credit emission
// (SendCredit, called by the receiver) shard-local; local marks links
// whose *sender* is also in-shard, so their credit returns are applied
// inline instead of deferred.
type shardLink struct {
	idx   int
	local bool
}

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
	id     int
	lo, hi int         // owned tile range [lo, hi)
	links  []shardLink // owned links (by receiving tile)

	// active is the shard's router worklist: tiles whose router holds at
	// least one flit. Routers join on flit acceptance and leave at the
	// route-phase sweep, so fully quiescent regions cost nothing in the
	// three router phases.
	active []int

	// activeLinks is the shard's link worklist (indexes into n.links),
	// maintained only when n.caps.LinkGating is nil: links join when
	// their sender puts a flit on the wires or their receiver hands them
	// a credit, and leave at the delivery sweep once Idle. Off-list links skip even the
	// idle utilization tick; linkEntry.tickedTo records how far their
	// window has been accounted so activation (and any Util read) can
	// catch the counter up in one AddCycles call.
	activeLinks []int32

	// pendingLinks defers link activations whose receiver lives in
	// another shard (a send crosses the shard boundary); linkarbMerge
	// applies them behind the phase barrier.
	pendingLinks []int32

	// pumpList is the shard's port worklist for the pump phase: ports
	// with queued or in-progress injections (Port.injWork() > 0).
	// loopList is the matching worklist for pending loopback deliveries.
	// Both are maintained through Port.notePump/noteLoopback and swept by
	// their phase; used only when n.caps.PortGating is nil.
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
	aborted        int64 // Network.aborted
}

// initShards partitions the tiles into contiguous ranges, one per shard,
// and assigns each link to the shard of its receiving tile. The count is
// Config.Shards (0 selects GOMAXPROCS) clamped to [1, tiles], or one when
// the configuration withdraws sharding (Capabilities.Sharding).
func (n *Network) initShards() {
	tiles := n.topo.NumTiles()
	count := n.cfg.Shards
	if count == 0 {
		count = runtime.GOMAXPROCS(0)
	}
	if count < 1 || n.caps.Sharding != nil {
		count = 1
	}
	count = min(count, tiles)
	n.shardOf = make([]int, tiles)
	n.onList = make([]bool, tiles)
	n.shards = make([]*shardState, count)
	for s := 0; s < count; s++ {
		sh := &shardState{id: s, lo: tiles * s / count, hi: tiles * (s + 1) / count}
		for t := sh.lo; t < sh.hi; t++ {
			n.shardOf[t] = s
		}
		n.shards[s] = sh
	}
	// Size each shard's link list first and carve the lists from one
	// slab, so the partition costs the same allocations at any die size.
	owned := make([]int, count)
	for i := range n.links {
		owned[n.shardOf[n.links[i].to]]++
	}
	slab := make([]shardLink, len(n.links))
	for s, sh := range n.shards {
		sh.links, slab = slab[:0:owned[s]], slab[owned[s]:]
	}
	for i := range n.links {
		le := &n.links[i]
		owner := n.shardOf[le.to]
		n.shards[owner].links = append(n.shards[owner].links,
			shardLink{idx: i, local: n.shardOf[le.from] == owner})
	}
}

// Shards reports the effective intra-cycle shard count the network runs
// with (1 = sequential). It can be lower than Config.Shards when the
// configuration withdraws sharding (Capabilities.Sharding).
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

// acceptAt hands a flit to a tile's VC router and keeps the worklist
// current.
func (n *Network) acceptAt(tile int, f *flit.Flit, from route.Dir) {
	n.routers[tile].AcceptFlit(f, from)
	n.activate(tile)
}

// activateLink puts a link on its owning (receiving) shard's worklist and
// catches its utilization window up over the skipped idle cycles. Safe to
// call repeatedly; the linkOn bit dedupes. Must only be called by the
// owning shard's worker or from serial/merge phases.
func (n *Network) activateLink(i int32, _ int64) {
	if n.linkOn[i] {
		return
	}
	n.linkOn[i] = true
	le := &n.links[i]
	if gap := n.utilTicks - le.tickedTo; gap > 0 {
		le.l.Util.AddCycles(gap)
	}
	le.tickedTo = n.utilTicks
	s := n.shards[n.shardOf[le.to]]
	s.activeLinks = append(s.activeLinks, i)
}

// deliverGatedShard is deliverShard over the link worklist: only links
// with traffic (or credits) in flight are visited, and a link that has
// gone idle leaves the list — its utilization window is frozen at
// tickedTo and caught up on reactivation. Quiescent regions therefore
// cost nothing in the delivery phase, not even the idle tick.
func (n *Network) deliverGatedShard(now sim.Cycle, si int) {
	s := n.shards[si]
	keep := s.activeLinks[:0]
	for _, i := range s.activeLinks {
		le := &n.links[i]
		if le.l.Idle() {
			// This cycle's idle tick is skipped along with the link;
			// utilTicks has not yet counted this cycle (deliverMerge
			// increments it), so the frozen window ends exactly here.
			n.linkOn[i] = false
			le.tickedTo = n.utilTicks
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
		f, credits := le.l.Deliver()
		if len(credits) > 0 {
			if n.shardOf[le.from] == si {
				n.routers[le.from].HandleCredits(le.dir, credits)
			} else {
				for _, vc := range credits {
					s.credits = append(s.credits, creditRet{n.routers[le.from], le.dir, vc})
				}
			}
		}
		if f != nil {
			n.acceptAt(le.to, f, le.dir.Opposite())
		}
	}
	s.activeLinks = keep
}

// deliverShard advances this shard's links by one cycle: flits complete
// their traversal into in-shard routers, credits complete their reverse
// traversal toward the sending router — applied inline when the sender is
// in-shard, deferred to the barrier otherwise.
func (n *Network) deliverShard(now sim.Cycle, si int) {
	if n.caps.LinkGating == nil {
		n.deliverGatedShard(now, si)
		return
	}
	s := n.shards[si]
	for _, sl := range s.links {
		i := sl.idx
		le := &n.links[i]
		if le.l.Idle() {
			// Active-set skip: nothing in flight in either direction.
			// Only the utilization counter needs its idle tick.
			le.l.Util.Tick(0)
			if n.wdCredit != nil {
				n.wdCredit[i] = false
			}
			continue
		}
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
		f, credits := le.l.Deliver()
		if n.wdCredit != nil {
			n.wdCredit[i] = len(credits) > 0
		}
		if !n.cfg.Deflect && len(credits) > 0 {
			if sl.local {
				n.routers[le.from].HandleCredits(le.dir, credits)
			} else {
				// The credits slice is only valid until the link's next
				// Deliver, so copy the VC indices into the deferral buffer.
				for _, vc := range credits {
					s.credits = append(s.credits, creditRet{n.routers[le.from], le.dir, vc})
				}
			}
		}
		if f != nil {
			if n.traceLinks && f.Type.IsHead() {
				n.probe.Links[i].TraceHead(int64(now), f.PacketID)
			}
			if n.cfg.Deflect {
				n.defls[le.to].AcceptFlit(f, le.dir.Opposite())
			} else {
				n.acceptAt(le.to, f, le.dir.Opposite())
			}
		}
	}
}

// deliverMerge applies the deferred cross-shard credit returns. Credit
// restoration is a commutative counter increment, so application order
// cannot affect state; shard order is used for reproducibility. It also
// advances utilTicks, the network-wide count of completed delivery
// phases, which is the reference clock for gated links' frozen
// utilization windows.
func (n *Network) deliverMerge(sim.Cycle) {
	n.utilTicks++
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

// linkarbShard runs link arbitration over the shard's worklist. A link's
// sender is the only component touching it during this phase, so sending
// on a link owned by another shard (the receiver's) is race-free. Under
// link gating the routers' packed sent masks are consumed here to wake
// the links that just received a flit: in-shard receivers activate
// directly, cross-shard activations are deferred to linkarbMerge (the
// receiver's worklist belongs to another worker).
func (n *Network) linkarbShard(now sim.Cycle, si int) {
	s := n.shards[si]
	for _, tile := range s.active {
		r := n.routers[tile]
		if r.Occupancy() == 0 {
			continue
		}
		r.LinkArbitrate(now)
		if n.caps.LinkGating != nil {
			continue
		}
		for m := r.SentOutputs(); m != 0; m &= m - 1 {
			li := n.outLinkIdx[tile*router.NumPorts+bits.TrailingZeros32(m)]
			if li < 0 || n.linkOn[li] {
				continue
			}
			if n.shardOf[n.links[li].to] == si {
				n.activateLink(li, int64(now))
			} else {
				s.pendingLinks = append(s.pendingLinks, li)
			}
		}
	}
}

// linkarbMerge applies the deferred cross-shard link activations. Each
// link has exactly one sender, so no activation is pended twice; the
// linkOn re-check in activateLink makes the fold idempotent anyway.
func (n *Network) linkarbMerge(now sim.Cycle) {
	for _, s := range n.shards {
		for _, li := range s.pendingLinks {
			n.activateLink(li, int64(now))
		}
		s.pendingLinks = s.pendingLinks[:0]
	}
}

// switcharbShard runs switch arbitration (plus the deflection routers'
// combined arbitration) over the shard. Under link gating the routers'
// packed credited masks are consumed here to wake the links carrying the
// freed-slot credits upstream; a credit always travels on a link whose
// receiving tile is this router, so the activation is always in-shard.
func (n *Network) switcharbShard(now sim.Cycle, si int) {
	s := n.shards[si]
	for _, tile := range s.active {
		r := n.routers[tile]
		if r.Occupancy() == 0 {
			continue
		}
		r.SwitchArbitrate(now)
		if n.caps.LinkGating != nil {
			continue
		}
		for m := r.CreditedInputs(); m != 0; m &= m - 1 {
			if li := n.inLinkIdx[tile*router.NumPorts+bits.TrailingZeros32(m)]; li >= 0 {
				n.activateLink(li, int64(now))
			}
		}
	}
	if n.cfg.Deflect {
		for tile := s.lo; tile < s.hi; tile++ {
			n.defls[tile].Arbitrate(now)
		}
	}
}

// ejectShard delivers ejected flits to the shard's ports: reassembly,
// abort handling, and matured loopbacks. Recorder updates are deferred
// per shard (see Port.receive / deliverLoopbacks) and folded in by
// ejectMerge. Under port gating only routers on the worklist can hold
// eject-queue flits (the queue counts toward occupancy), and loopbacks
// are tracked on their own worklist, so quiescent tiles are never
// visited. A tile with both still sees its ejected flits before its
// loopbacks, exactly as the full scan orders them.
func (n *Network) ejectShard(now sim.Cycle, si int) {
	s := n.shards[si]
	if n.caps.PortGating == nil {
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
		return
	}
	for tile := s.lo; tile < s.hi; tile++ {
		p := n.ports[tile]
		var ejected []*flit.Flit
		if n.cfg.Deflect {
			ejected = n.defls[tile].Eject()
		} else {
			ejected = n.routers[tile].Eject()
		}
		if len(ejected) > 0 {
			p.receive(ejected, now)
		}
		p.deliverLoopbacks(now)
	}
}

// ejectMerge folds the shards' deferred deliveries into the recorder in
// shard order — which is tile order, the sequential schedule. (All the
// recorder updates of one cycle are order-commutative anyway: every
// record carries the same `now`, and the histograms and counters are
// multiset-valued.)
func (n *Network) ejectMerge(now sim.Cycle) {
	for _, s := range n.shards {
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
		n.aborted += s.aborted
		s.delivered, s.deliveredFlits, s.aborted = 0, 0, 0
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

// pumpShard drives injection arbitration for the shard's ports. Under
// port gating only ports with queued or in-progress injections are on the
// worklist; a port whose work has drained leaves it and rejoins on the
// next Send. Injection effects are port-local (plus shard counters and
// the tile's own router), so worklist order is as good as tile order.
func (n *Network) pumpShard(now sim.Cycle, si int) {
	s := n.shards[si]
	if n.caps.PortGating == nil {
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
		return
	}
	for tile := s.lo; tile < s.hi; tile++ {
		n.ports[tile].pump(now)
	}
}

// pumpMerge folds the shards' injected-packet counts into the recorder.
func (n *Network) pumpMerge(sim.Cycle) {
	for _, s := range n.shards {
		n.recorder.InjectedPackets += s.injected
		s.injected = 0
	}
}
