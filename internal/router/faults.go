package router

import (
	"math/bits"

	"repro/internal/flit"
	"repro/internal/route"
)

// AbortSeq is the sentinel sequence number of a synthetic abort tail: the
// flit a router emits down a packet's remaining path when the packet was
// cut mid-flight by a dead channel. The abort tail releases the per-hop
// virtual-channel allocations the cut packet holds (so the fault does not
// leak VCs into a deadlock) and tells the destination port to discard the
// partial packet instead of waiting forever.
const AbortSeq = 1 << 20

// SetPortStall freezes (or thaws) the input controller for direction d: a
// stalled controller neither routes nor arbitrates, so its buffered flits
// stop advancing and upstream credits starve — the signature a credit
// watchdog detects.
func (r *Router) SetPortStall(d route.Dir, on bool) {
	r.stalledIn[portIndex(d)] = on
}

// SetVCStuck wedges (or frees) one virtual channel of the input controller
// for direction d.
func (r *Router) SetVCStuck(d route.Dir, vc int, on bool) {
	pi := portIndex(d)
	if r.stuckVC[pi] == nil {
		if !on {
			return
		}
		r.stuckVC[pi] = make([]bool, r.cfg.NumVCs)
	}
	if vc >= 0 && vc < r.cfg.NumVCs {
		r.stuckVC[pi][vc] = on
		if on {
			r.inputs[pi].stuckMask |= 1 << uint(vc)
		} else {
			r.inputs[pi].stuckMask &^= 1 << uint(vc)
		}
	}
}

// vcIsStuck reports whether VC v of input port pi is wedged.
func (r *Router) vcIsStuck(pi, v int) bool {
	return r.stuckVC[pi] != nil && r.stuckVC[pi][v]
}

// KillOutput marks the output in direction d dead: staged and bypass flits
// bound for it are dropped, and no flit is ever granted the switch toward
// it again. Input VCs already routed toward the dead output are drained by
// FaultSweep. Called by the network when a watchdog declares the outgoing
// link dead; irreversible (fail-stop).
func (r *Router) KillOutput(d route.Dir) {
	po := portIndex(d)
	if r.deadOut[po] {
		return
	}
	r.deadOut[po] = true
	r.anyDead = true
	oc := &r.outputs[po]
	for i, f := range oc.staging {
		if f != nil {
			r.dropFaulted(f)
			oc.staging[i] = nil
			r.occ--
		}
	}
	oc.stagedMask = 0
	for _, f := range oc.bypass {
		r.dropFaulted(f)
		r.occ--
	}
	oc.bypass = nil
}

// HasDeadOutput reports whether any output has been killed, so the network
// can skip FaultSweep on healthy routers.
func (r *Router) HasDeadOutput() bool { return r.anyDead }

// dropFaulted accounts one flit discarded because of a dead output and
// recycles it. The flit is dead after this call.
func (r *Router) dropFaulted(f *flit.Flit) {
	r.Stats.FaultDroppedFlits++
	if f.Type.IsTail() && f.Seq != AbortSeq {
		r.Stats.FaultDroppedPackets++
	}
	if r.pool != nil {
		r.pool.Put(f)
	}
}

// FaultSweep drains input VCs routed toward dead outputs: their buffered
// flits are discarded with credits returned upstream, exactly as if they
// had traversed the switch, so upstream routers do not wedge behind the
// fault. The VC frees once the packet's tail has been swept. Call once per
// cycle while the router has dead outputs.
func (r *Router) FaultSweep(now int64) {
	if !r.anyDead {
		return
	}
	for pi := range r.inputs {
		ic := &r.inputs[pi]
		for vi := range ic.vcs {
			st := &ic.vcs[vi]
			if !st.routed || !r.deadOut[portIndex(st.outPort)] {
				continue
			}
			for st.bufLen() > 0 {
				f := ic.pop(vi)
				r.occ--
				r.creditUpstream(pi, f.VC)
				isTail := f.Type.IsTail()
				r.dropFaulted(f)
				if isTail {
					ic.setRouted(vi, false)
					st.outVC = -1
					break
				}
			}
		}
	}
}

// AbandonInput terminates the packets cut mid-flight on the input for
// direction d, after the incoming link has been fenced off (no further
// flit will arrive). Every VC whose in-progress packet is missing its tail
// gets a synthetic abort tail appended, which drains down the packet's
// remaining path releasing VC allocations, and tells the destination to
// discard the partial packet. Called by the network when a watchdog
// declares the incoming link dead.
func (r *Router) AbandonInput(d route.Dir, now int64) {
	ic := &r.inputs[portIndex(d)]
	for vi := range ic.vcs {
		st := &ic.vcs[vi]
		var cut bool
		var id uint64
		var src, dst int
		if st.bufLen() > 0 {
			if last := st.back(); !last.Type.IsTail() {
				cut = true
				id, src, dst = last.PacketID, last.Src, last.Dst
			}
		} else if st.routed {
			cut = true
			id, src, dst = st.pktID, st.pktSrc, st.pktDst
		}
		if !cut {
			continue
		}
		r.Stats.AbortedPackets++
		var abort *flit.Flit
		if r.pool != nil {
			abort = r.pool.Get()
		} else {
			abort = &flit.Flit{}
		}
		abort.Type = flit.Tail
		abort.VC = vi
		abort.PacketID = id
		abort.Seq = AbortSeq
		abort.Src = src
		abort.Dst = dst
		ic.push(vi, abort)
		r.occ++
	}
}

// HasDemand reports whether any flit in the router wants the output in
// direction d (staged, bypassed, or buffered in a VC routed toward it).
// The credit watchdog counts starvation cycles only while demand exists,
// so an idle link never trips it.
func (r *Router) HasDemand(d route.Dir) bool {
	oc := &r.outputs[portIndex(d)]
	if oc.stagedMask != 0 {
		return true
	}
	if len(oc.bypass) > 0 {
		return true
	}
	for pi := range r.inputs {
		ic := &r.inputs[pi]
		for m := ic.occMask & ic.routedMask; m != 0; m &= m - 1 {
			if ic.vcs[bits.TrailingZeros32(m)].outPort == d {
				return true
			}
		}
	}
	return false
}
