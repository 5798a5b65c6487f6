package network

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file implements the network side of the runtime fault-injection
// subsystem: the credit-starvation watchdogs (online detection), the
// fail-stop declare-dead protocol, fault-aware source rerouting, and the
// fault.Target interface the injector drives.

// watchdogTick is the per-cycle watchdog phase. For every healthy link it
// counts consecutive cycles in which the sending router had demand for the
// link but no credit returned; at the threshold the link is declared dead.
// A credit arrival or an idle (demand-free) cycle resets the counter, so a
// heavily loaded but healthy link never trips the watchdog as long as its
// credits keep circulating. Delivery sets wdCredit[i] when a credit
// arrives on link i; this phase reads and clears it every cycle.
func (n *Network) watchdogTick(now sim.Cycle) {
	for i := range n.links {
		le := &n.links[i]
		credited := n.wdCredit[i]
		n.wdCredit[i] = false
		if n.faultMap.IsDown(le.from, le.dir) {
			continue
		}
		if credited || !n.routers[le.from].HasDemand(le.dir) {
			n.wdStarve[i] = 0
			continue
		}
		n.wdStarve[i]++
		if n.wdStarve[i] >= int64(n.cfg.Watchdog) {
			n.declareDead(i, now)
		}
	}
	for _, r := range n.routers {
		if r.HasDeadOutput() {
			r.FaultSweep(now)
			// Wake the links the sweep credited: a router it emptied leaves
			// its worklist before switcharb would read its credited mask.
			n.wakeCredited(r.ID(), r.CreditedInputs())
		}
	}
}

// declareDead executes the fail-stop protocol for link i at cycle now:
//
//  1. publish the link in the live fault map;
//  2. fence the wires (SetDown), so nothing arrives after step 4;
//  3. kill the sending router's output: staged flits drop, VCs routed
//     toward it drain via FaultSweep with credits returned upstream;
//  4. abandon the receiving router's input: packets cut mid-flight get
//     synthetic abort tails that release downstream VC state;
//  5. recompute the source routes of every not-yet-injected packet around
//     the updated fault map.
func (n *Network) declareDead(i int, now int64) {
	le := &n.links[i]
	if !n.faultMap.MarkDown(le.from, le.dir, now) {
		return
	}
	le.l.SetDown(true)
	n.routers[le.from].KillOutput(le.dir)
	n.routers[le.to].AbandonInput(le.dir.Opposite(), now)
	// AbandonInput synthesizes abort tails into the receiver's input
	// buffers; put it on its shard's worklist so they route and eject.
	n.activate(le.to)
	n.reroutePending()
	if n.probe != nil {
		n.probe.OnLinkDead(i, now)
	}
}

// routeFor computes the source route from src to dst honouring the live
// fault map: dimension order when its path is fault-free (preserving the
// dateline deadlock-avoidance argument for unaffected pairs), otherwise the
// minimal path avoiding dead channels. rerouted reports that the fault map
// diverted the route; the error is topology.ErrNetworkCut when no
// fault-free path exists.
func (n *Network) routeFor(src, dst int) (w route.Word, rerouted bool, err error) {
	if n.faultMap.Empty() {
		w, err = n.faultFreeRoute(src, dst)
		return w, false, err
	}
	n.routeMisses++
	w, err = route.Compute(n.topo, src, dst)
	if err == nil && n.pathClear(src, w) {
		return w, false, nil
	}
	path, perr := topology.ShortestAvoiding(n.topo, src, dst, n.faultMap.IsDown)
	if perr != nil {
		return route.Word{}, false, perr
	}
	w, err = route.Encode(path)
	if err != nil {
		return route.Word{}, false, err
	}
	return w, true, nil
}

// faultFreeRoute returns the dimension-ordered route from src to dst,
// ignoring the fault map. Fault-free routes are a pure function of the
// topology, so they are served from the route table (Config.RouteTable);
// its only misses are routes too long for a Word, which Compute then
// reports as an error.
func (n *Network) faultFreeRoute(src, dst int) (route.Word, error) {
	if w, ok := n.routeTable.Lookup(src, dst); ok {
		n.routeHits++
		return w, nil
	}
	n.routeMisses++
	return route.Compute(n.topo, src, dst)
}

// pathClear reports whether the route crosses no dead channel.
func (n *Network) pathClear(src int, w route.Word) bool {
	dirs, err := route.Walk(w)
	if err != nil {
		return false
	}
	tile := src
	for _, d := range dirs {
		if n.faultMap.IsDown(tile, d) {
			return false
		}
		next, ok := n.topo.Neighbor(tile, d)
		if !ok {
			return false
		}
		tile = next
	}
	return true
}

// reroutePending recomputes the route of every queued (not yet injected)
// packet after a fault map change, so traffic accepted before the fault
// degrades gracefully instead of marching into the dead link. Packets the
// fault cut off entirely are discarded and counted unroutable.
func (n *Network) reroutePending() {
	for _, p := range n.ports {
		keep := p.pending[:0]
		for _, in := range p.pending {
			head := in.flits[0]
			w, rr, err := n.routeFor(p.tile, head.Dst)
			if err != nil {
				n.unroutable++
				// The injection never started, so every flit is still
				// ours: recycle them and the injection itself.
				for _, f := range in.flits {
					p.pool.Put(f)
				}
				p.putInjection(in)
				continue
			}
			if rr {
				n.rerouted++
				head.Route = w
			}
			keep = append(keep, in)
		}
		// Zero the dropped tail so discarded injections are collectable.
		for i := len(keep); i < len(p.pending); i++ {
			p.pending[i] = nil
		}
		p.pending = keep
	}
}

// RouteTableStats reports route lookups served from the route table
// versus route.Compute runs: table misses (routes longer than a Word
// holds) plus every route taken while the fault map is nonempty.
// Operational metrics only: they count from the network's build, so
// they are excluded from snapshots and must never feed deterministic
// outputs.
func (n *Network) RouteTableStats() (hits, misses int64) {
	return n.routeHits, n.routeMisses
}

// FaultMap exposes the live fault map published by the watchdogs.
func (n *Network) FaultMap() *fault.Map { return n.faultMap }

// ReroutedCount reports how many route computations were diverted around
// the fault map (at injection or while queued).
func (n *Network) ReroutedCount() int64 { return n.rerouted }

// UnroutableCount reports packets refused or discarded because the fault
// map cut the network between their endpoints.
func (n *Network) UnroutableCount() int64 { return n.unroutable }

// AbortedCount reports partial packets the destination ports discarded on
// a synthetic abort tail (mid-flight packets cut by a dead link).
func (n *Network) AbortedCount() int64 {
	var c int64
	for _, p := range n.ports {
		c += p.AbortedPackets
	}
	return c
}

// FaultTotals aggregates the fault accounting across routers and links.
type FaultTotals struct {
	DeadLinks      int   // channels declared dead by the watchdogs
	LostFlits      int64 // flits lost on dead wires
	LostCredits    int64 // credits lost on dead wires
	DroppedFlits   int64 // flits drained at dead outputs
	DroppedPackets int64 // tails among those (≈ packets cut at routers)
	AbortedIn      int64 // packets terminated with synthetic abort tails
	AbortedRx      int64 // partial packets discarded at destinations
	Rerouted       int64 // route computations diverted by the fault map
	Unroutable     int64 // sends refused because the network was cut
	Detections     []fault.Detection
}

// FaultTotals collects the network-wide fault accounting.
func (n *Network) FaultTotals() FaultTotals {
	t := FaultTotals{
		DeadLinks:  n.faultMap.Len(),
		AbortedRx:  n.AbortedCount(),
		Rerouted:   n.rerouted,
		Unroutable: n.unroutable,
		Detections: n.faultMap.Detections(),
	}
	for _, le := range n.links {
		t.LostFlits += le.l.FaultLostFlits
		t.LostCredits += le.l.FaultLostCredits
	}
	for _, r := range n.routers {
		t.DroppedFlits += r.Stats.FaultDroppedFlits
		t.DroppedPackets += r.Stats.FaultDroppedPackets
		t.AbortedIn += r.Stats.AbortedPackets
	}
	return t
}

// --- fault.Target implementation -------------------------------------------

// NumTiles implements fault.Target.
func (n *Network) NumTiles() int { return n.topo.NumTiles() }

// NumLinks implements fault.Target.
func (n *Network) NumLinks() int { return len(n.links) }

// LinkEndpoints implements fault.Target.
func (n *Network) LinkEndpoints(i int) (from int, dir route.Dir, to int) {
	le := &n.links[i]
	return le.from, le.dir, le.to
}

// SetLinkDown implements fault.Target: it breaks the hardware only. The
// watchdogs, not the injector, are responsible for detecting the fault and
// updating the fault map.
func (n *Network) SetLinkDown(i int, down bool) { n.links[i].l.SetDown(down) }

// SetLinkFlip implements fault.Target.
func (n *Network) SetLinkFlip(i int, prob float64) error {
	le := &n.links[i]
	if le.l.Phys == nil {
		return fmt.Errorf("network: link %d has no physical wire layer (enable PhysWires)", i)
	}
	le.l.Phys.TransientProb = prob
	return nil
}

// SetPortStall implements fault.Target.
func (n *Network) SetPortStall(tile int, port route.Dir, on bool) {
	n.routers[tile].SetPortStall(port, on)
}

// SetVCStuck implements fault.Target.
func (n *Network) SetVCStuck(tile int, port route.Dir, vc int, on bool) {
	n.routers[tile].SetVCStuck(port, vc, on)
}
