package router

import (
	"fmt"
	"math/bits"

	"repro/internal/flit"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// SwitchArbitrate performs virtual-channel allocation and switch
// arbitration for one cycle. Per §2.3 the two happen in parallel
// (speculatively): a head flit that wins switch arbitration is forwarded in
// the same cycle its downstream VC and buffer space are checked.
// Pre-scheduled flits on the reserved VC move first, through the bypass,
// without arbitrating (§2.6). A deflection router has no switch stage.
func (r *Router) SwitchArbitrate(now int64) {
	if r.cfg.Mode == ModeDeflect {
		return
	}
	if r.cfg.ReservedVC >= 0 {
		r.moveReserved(now)
	}
	for pi := range r.inputs {
		ic := &r.inputs[pi]
		if r.stalledIn[pi] {
			continue
		}
		// Only occupied, routed, unwedged, non-reserved VCs can request
		// the switch; the packed word prunes the whole port in one test.
		cand := ic.occMask & ic.routedMask &^ ic.stuckMask &^ r.inReservedMask
		if cand == 0 {
			continue
		}
		// Class-of-service: priority VCs are tried first, so a
		// non-priority VC wins only when no priority flit is eligible
		// (§2.1: the VC mask "identifies a class of service").
		win := -1
		if p := cand & r.prioMask; p != 0 {
			win = r.grant(pi, ic, p, now)
		}
		if win < 0 {
			win = r.grant(pi, ic, cand&^r.prioMask, now)
		}
		if r.probe != nil {
			r.noteArbitration(pi, cand, win, now)
		}
		if win >= 0 {
			r.moveFlit(pi, win, now)
		}
	}
}

// grant walks the VCs of m in the port arbiter's round-robin order and
// grants the switch to the first whose front flit is eligible, moving the
// pointer past it; with none eligible it returns -1 and leaves the
// pointer. The VCs after the winner are never checked. The winner is the
// one the arbiter would pick from a request vector of every eligible VC
// of m, because checking eligibility changes nothing.
func (r *Router) grant(pi int, ic *inputController, m uint32, now int64) int {
	ahead, behind := ic.arb.split(m)
	for _, part := range [2]uint32{ahead, behind} {
		for ; part != 0; part &= part - 1 {
			v := bits.TrailingZeros32(part)
			if r.eligible(pi, &ic.vcs[v], now) {
				ic.arb.advance(v)
				return v
			}
		}
	}
	return -1
}

// noteArbitration classifies, for telemetry, why each candidate VC of
// input port pi other than the winner win (-1 for none) did not move this
// cycle: an eligible flit lost the switch grant (to the winner, or to a
// higher priority class); otherwise its output's staging buffer was
// occupied, or it lacked a downstream VC or credit. It runs before the
// winner moves, so it sees what the grant saw, and only with a probe
// attached, so the disabled path pays nothing.
func (r *Router) noteArbitration(pi int, cand uint32, win int, now int64) {
	if win >= 0 {
		cand &^= 1 << uint(win)
	}
	ic := &r.inputs[pi]
	for ; cand != 0; cand &= cand - 1 {
		st := &ic.vcs[bits.TrailingZeros32(cand)]
		if r.eligible(pi, st, now) {
			r.probe.ArbLosses++
			continue
		}
		out := portIndex(st.outPort)
		if r.deadOut[out] {
			continue // drained by FaultSweep, not a flow-control stall
		}
		if r.cfg.NonSpeculative && st.frontHead && st.routedAt == now {
			continue // the deliberate non-speculative pipeline bubble
		}
		if r.outputs[out].staging[pi] != nil {
			r.probe.StageStalls++
		} else {
			r.probe.CreditStalls++
		}
	}
}

// moveReserved advances reserved-VC flits into their output bypasses.
func (r *Router) moveReserved(now int64) {
	for pi := range r.inputs {
		ic := &r.inputs[pi]
		if r.stalledIn[pi] || r.vcIsStuck(pi, r.cfg.ReservedVC) {
			continue
		}
		st := &ic.vcs[r.cfg.ReservedVC]
		if st.bufLen() == 0 || !st.routed {
			continue
		}
		f := ic.pop(r.cfg.ReservedVC)
		st.lastDeq = now
		oc := &r.outputs[portIndex(st.outPort)]
		inVC := f.VC
		if f.Type.IsTail() {
			ic.setRouted(r.cfg.ReservedVC, false)
		}
		if r.deadOut[portIndex(st.outPort)] {
			r.creditUpstream(pi, inVC)
			r.occ--
			r.dropFaulted(f)
			continue
		}
		oc.bypass = append(oc.bypass, f)
		r.outWorkMask |= 1 << uint(portIndex(st.outPort))
		r.creditUpstream(pi, inVC)
		r.Stats.BypassMoves++
	}
}

// eligible reports whether the flit at the front of st, a VC of input
// port pi, can traverse the switch this cycle. Its callers, grant and
// noteArbitration, pass only VCs of the packed occupied-and-routed
// candidate word, so it does not reload that state. It must have no side
// effects: it reads router state and asks chooseVCNeed, and changes
// nothing. grant relies on that to stop at the round-robin winner, and
// noteArbitration to re-check the losers without perturbing the run.
func (r *Router) eligible(pi int, st *vcState, now int64) bool {
	// st.frontHead mirrors front().Type.IsHead(), so this path only
	// dereferences the flit itself for heads (which need VC allocation);
	// a body flit's eligibility reads nothing beyond the vcState and the
	// output controller's packed state.
	if r.cfg.NonSpeculative && st.frontHead && st.routedAt == now {
		// Without speculation, VC allocation happens the cycle after
		// route computation; the head only competes for the switch then.
		return false
	}
	if r.deadOut[portIndex(st.outPort)] {
		// The output died; FaultSweep will drain this VC.
		return false
	}
	oc := &r.outputs[portIndex(st.outPort)]
	if oc.stagedMask&(1<<uint(pi)) != 0 {
		return false
	}
	if oc.dir == route.Local || r.cfg.Mode == ModeDrop {
		return true
	}
	if st.frontHead {
		f := st.front()
		return r.chooseVCFor(oc, f, r.downstreamClass(route.Dir(pi), oc, f)) >= 0
	}
	return st.outVC >= 0 && (r.cfg.ElasticLinks || oc.creditMask&(1<<uint(st.outVC)) != 0)
}

// chooseVCFor applies the per-packet credit requirement: one flit under
// wormhole flow control, the whole packet under virtual cut-through.
func (r *Router) chooseVCFor(oc *outputController, f *flit.Flit, high bool) int {
	need := 1
	if r.cfg.CutThrough && f.TotalFlits > 1 {
		need = f.TotalFlits
	}
	return r.chooseVCNeed(oc, f.Mask, high, need)
}

// dims is the dimension of each direction: 0 for east/west, 1 for
// north/south, -1 for the local port.
var dims = [NumPorts]int8{route.North: 1, route.East: 0, route.South: 1, route.West: 0, route.Local: -1}

// dimOf reports the dimension of a direction (dims).
func dimOf(d route.Dir) int { return int(dims[d]) }

// downstreamClass reports whether the flit occupies a high-class
// (post-dateline) buffer after leaving through oc: true when the output is
// itself a dateline link, or the packet already wrapped in this dimension
// and continues straight. Entering from the tile or turning into a new
// dimension resets the class.
func (r *Router) downstreamClass(from route.Dir, oc *outputController, f *flit.Flit) bool {
	if !r.cfg.DatelineVCs {
		return false
	}
	if oc.dateline {
		return true
	}
	return f.Wrapped && dimOf(from) == dimOf(oc.dir)
}

// vcPairs reports the number of VC pairs under dateline classes (or the
// plain VC count without them).
func (r *Router) vcPairs() int {
	if r.cfg.DatelineVCs {
		return r.cfg.NumVCs / 2
	}
	return r.cfg.NumVCs
}

// pairPermitted reports whether the mask grants the VC pair p: either
// class's bit selects the pair, so legacy single-bit masks stay routable
// across datelines.
func (r *Router) pairPermitted(mask flit.VCMask, p int) bool {
	if !r.cfg.DatelineVCs {
		return mask.Has(p)
	}
	return mask.Has(p) || mask.Has(p+r.vcPairs())
}

// isPriority reports whether VC v is a class-of-service priority channel;
// under dateline classes the priority mask addresses VC pairs.
func (r *Router) isPriority(v int) bool {
	if r.cfg.PriorityVCs == 0 {
		return false
	}
	if r.cfg.PriorityVCs.Has(v) {
		return true
	}
	if r.cfg.DatelineVCs {
		p := v % r.vcPairs()
		return r.cfg.PriorityVCs.Has(p) || r.cfg.PriorityVCs.Has(p+r.vcPairs())
	}
	return false
}

// reservedPair reports whether VC v belongs to the reserved pre-scheduled
// pair.
func (r *Router) reservedPair(v int) bool {
	if r.cfg.ReservedVC < 0 {
		return false
	}
	pairs := r.vcPairs()
	return v%pairs == r.cfg.ReservedVC%pairs
}

// chooseVC picks a free, credited downstream VC from the packet's mask in
// the required dateline class (lowest index first, deterministically).
// VCs of the reserved pair are never given to dynamic traffic.
func (r *Router) chooseVC(oc *outputController, mask flit.VCMask, high bool) int {
	return r.chooseVCNeed(oc, mask, high, 1)
}

// chooseVCNeed is chooseVC with an explicit credit requirement (virtual
// cut-through asks for the whole packet's worth). The candidate set —
// permitted by the packet's VC mask, in the required dateline class, not
// of the reserved pair, unowned, and credited — is computed as one packed
// word; the lowest set bit preserves the deterministic lowest-index-first
// choice of the unpacked scan.
func (r *Router) chooseVCNeed(oc *outputController, mask flit.VCMask, high bool, need int) int {
	pairs := r.vcPairs()
	pm := uint32(mask) & r.pairSelMask
	if r.cfg.DatelineVCs {
		pm = (uint32(mask) | uint32(mask)>>uint(pairs)) & r.pairSelMask
	}
	if high {
		pm <<= uint(pairs)
	}
	cand := pm &^ r.reservedPairMask &^ oc.ownerMask
	if !r.cfg.ElasticLinks {
		cand &= oc.creditMask
	}
	if cand == 0 {
		return -1
	}
	if need <= 1 || r.cfg.ElasticLinks {
		return bits.TrailingZeros32(cand)
	}
	for m := cand; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		if int(oc.credits[v]) >= need {
			return v
		}
	}
	return -1
}

// moveFlit commits a switch traversal: the flit leaves its input buffer,
// acquires its downstream VC and a credit if needed, and lands in the
// output's staging buffer for its input port.
func (r *Router) moveFlit(pi, vi int, now int64) {
	ic := &r.inputs[pi]
	st := &ic.vcs[vi]
	f := ic.pop(vi)
	st.lastDeq = now
	oc := &r.outputs[portIndex(st.outPort)]
	inVC := f.VC
	if r.cfg.Mode == ModeVC && oc.dir != route.Local {
		if f.Type.IsHead() {
			v := r.chooseVCFor(oc, f, r.downstreamClass(route.Dir(pi), oc, f))
			if v < 0 {
				panic(fmt.Sprintf("router %d: head %v won arbitration without a VC", r.cfg.ID, f))
			}
			oc.vcOwner[v] = f.PacketID + 1
			oc.ownerMask |= 1 << uint(v)
			st.outVC = v
		}
		f.VC = st.outVC
		if !r.cfg.ElasticLinks {
			oc.takeCredit(f.VC)
		}
	}
	if r.cfg.DatelineVCs {
		// Maintain the dateline bit: turning into a new dimension resets
		// it, crossing a dateline link sets it. Every flit of the packet
		// takes the same path, so the bit stays consistent per flit.
		if dimOf(route.Dir(pi)) != dimOf(oc.dir) {
			f.Wrapped = false
		}
		if oc.dateline {
			f.Wrapped = true
		}
	}
	if f.Type.IsTail() {
		ic.setRouted(vi, false)
		st.outVC = -1
	}
	oc.staging[pi] = f
	oc.stagedMask |= 1 << uint(pi)
	r.outWorkMask |= 1 << uint(portIndex(oc.dir))
	r.creditUpstream(pi, inVC)
	r.Stats.SwitchMoves++
	if r.probe != nil && f.Type.IsHead() {
		r.probe.Trace(telemetry.EvXbar, now, f.PacketID, int32(r.cfg.ID), int32(f.VC))
	}
}

// creditUpstream returns a freed input-buffer slot to the upstream router.
// §2.3: "credits for buffer allocation are piggybacked on flits travelling
// in the reverse direction." Injection-port slots need no credit channel:
// the client reads the ready signal combinationally (CanInject).
func (r *Router) creditUpstream(pi int, vc int) {
	if r.cfg.ElasticLinks || route.Dir(pi) == route.Local {
		return
	}
	if l := r.inLinks[pi]; l != nil {
		l.SendCredit(vc)
		r.creditedMask |= 1 << uint(pi)
	}
}

// CanAccept reports whether the input controller for direction from has
// buffer space on VC vc — the receiver-side ready signal an elastic
// channel polls before releasing its head flit.
func (r *Router) CanAccept(from route.Dir, vc int) bool {
	if vc < 0 || vc >= r.cfg.NumVCs {
		return false
	}
	return r.inputs[portIndex(from)].vcs[vc].bufLen() < r.cfg.BufFlits
}

// SentOutputs returns and clears the packed set of output ports that sent
// a flit onto their link since the last call; the network uses it to wake
// idle links on its worklists. Bit i = port i.
func (r *Router) SentOutputs() uint32 {
	m := r.sentMask
	r.sentMask = 0
	return m
}

// CreditedInputs returns and clears the packed set of input ports whose
// upstream link was handed a credit since the last call. Bit i = port i.
func (r *Router) CreditedInputs() uint32 {
	m := r.creditedMask
	r.creditedMask = 0
	return m
}

// LinkArbitrate lets the flits staged at each output port compete for the
// outgoing link (§2.3: "the flits in these buffers arbitrate for the link
// to the input controller on the next tile"). Reserved slots of the cyclic
// reservation table carry their flow's flit from the bypass without
// arbitration; the tile output delivers one flit per cycle to the client.
// A deflection router runs its whole hot-potato match here instead.
func (r *Router) LinkArbitrate(now int64) {
	if r.cfg.Mode == ModeDeflect {
		r.deflectArbitrate(now)
		return
	}
	for wm := r.outWorkMask; wm != 0; wm &= wm - 1 {
		oi := bits.TrailingZeros32(wm)
		oc := &r.outputs[oi]
		if oc.dir == route.Local {
			r.ejectOne(oc)
			if oc.stagedMask == 0 && len(oc.bypass) == 0 {
				r.outWorkMask &^= 1 << uint(oi)
			}
			continue
		}
		// Idle output: drop it from the work mask. The table check below
		// must still run every cycle on reserved outputs so the ResMisses
		// telemetry sees unclaimed slots, so those bits stay set.
		if oc.stagedMask == 0 && len(oc.bypass) == 0 {
			if !oc.table.anyRes {
				r.outWorkMask &^= 1 << uint(oi)
				continue
			}
		}
		if oc.link == nil || (!oc.entryFree && !oc.link.CanSend()) {
			continue
		}
		// FlowAt costs two int64 modulos plus a table load; with no slot
		// ever reserved (anyRes false, the common case) it can only return
		// 0, so skip it outright.
		if oc.table.anyRes {
			if flow := oc.table.FlowAt(now); flow != 0 {
				if idx := findFlow(oc.bypass, flow); idx >= 0 {
					f := oc.bypass[idx]
					oc.bypass = append(oc.bypass[:idx], oc.bypass[idx+1:]...)
					if r.probe != nil {
						r.probe.ResHits++
					}
					r.mustSend(oc, f)
					continue
				}
				if r.probe != nil {
					r.probe.ResMisses++
				}
				if !oc.table.WorkConserving {
					continue // strict TDM: unclaimed reserved slot idles
				}
			}
		}
		if oc.stagedMask == 0 {
			continue
		}
		w := oc.arb.GrantMask(oc.stagedMask)
		f := oc.staging[w]
		oc.staging[w] = nil
		oc.stagedMask &^= 1 << uint(w)
		r.mustSend(oc, f)
	}
}

func (r *Router) mustSend(oc *outputController, f *flit.Flit) {
	if err := oc.link.Send(f); err != nil {
		panic(fmt.Sprintf("router %d: %v", r.cfg.ID, err))
	}
	r.occ--
	r.sentMask |= 1 << uint(portIndex(oc.dir))
	if r.cfg.Mode == ModeVC && f.Type.IsTail() && f.VC < len(oc.vcOwner) {
		oc.vcOwner[f.VC] = 0
		oc.ownerMask &^= 1 << uint(f.VC)
	}
}

// ejectOne delivers at most one flit per cycle through the tile output
// port, reserved traffic first.
func (r *Router) ejectOne(oc *outputController) {
	if len(oc.bypass) > 0 {
		f := oc.bypass[0]
		oc.bypass = oc.bypass[1:]
		r.ejectQ = append(r.ejectQ, f)
		r.Stats.Ejected++
		return
	}
	if oc.stagedMask == 0 {
		return
	}
	w := oc.arb.GrantMask(oc.stagedMask)
	f := oc.staging[w]
	oc.staging[w] = nil
	oc.stagedMask &^= 1 << uint(w)
	r.ejectQ = append(r.ejectQ, f)
	r.Stats.Ejected++
}

func findFlow(flits []*flit.Flit, flow int) int {
	for i, f := range flits {
		if f.Flow == flow {
			return i
		}
	}
	return -1
}

// HandleCredit restores one credit returned by the downstream router on
// the output link in direction d.
func (r *Router) HandleCredit(d route.Dir, vc int) {
	oc := &r.outputs[portIndex(d)]
	if vc < 0 || vc >= r.cfg.NumVCs {
		panic(fmt.Sprintf("router %d: credit for invalid VC %d", r.cfg.ID, vc))
	}
	oc.addCredit(vc)
}

// Eject returns the flits delivered to the tile this cycle. The returned
// slice is only valid until the next cycle: the router reuses its backing
// array. Callers must consume (or copy) the flits before then.
func (r *Router) Eject() []*flit.Flit {
	out := r.ejectQ
	r.ejectQ = r.ejectQ[:0]
	r.occ -= len(out)
	return out
}

// Occupancy reports the total number of flits buffered in the router
// (input buffers, staging, bypass, and the eject queue), for drain
// detection, the network's active-set skip, and tests. It is O(1): the
// count is maintained incrementally; OccupancyRecount walks the real
// structures so tests can check the bookkeeping.
func (r *Router) Occupancy() int { return r.occ }

// OccupancyRecount recomputes the occupancy from the buffer structures.
// It must always equal Occupancy(); the invariant test enforces that.
func (r *Router) OccupancyRecount() int {
	n := 0
	for pi := range r.inputs {
		for v := range r.inputs[pi].vcs {
			n += r.inputs[pi].vcs[v].bufLen()
		}
	}
	for oi := range r.outputs {
		oc := &r.outputs[oi]
		for _, f := range oc.staging {
			if f != nil {
				n++
			}
		}
		n += len(oc.bypass)
	}
	return n + len(r.ejectQ)
}

// rebuildMasks reconstitutes every packed mask mirror from the unpacked
// state it shadows, after a checkpoint restore or a structural fault edit.
func (r *Router) rebuildMasks() {
	for pi := range r.inputs {
		ic := &r.inputs[pi]
		ic.occMask, ic.routedMask, ic.stuckMask = 0, 0, 0
		for v := range ic.vcs {
			if ic.vcs[v].bufLen() > 0 {
				ic.occMask |= 1 << uint(v)
				ic.vcs[v].frontHead = ic.vcs[v].front().Type.IsHead()
			}
			if ic.vcs[v].routed {
				ic.routedMask |= 1 << uint(v)
			}
		}
		if s := r.stuckVC[pi]; s != nil {
			for v, on := range s {
				if on {
					ic.stuckMask |= 1 << uint(v)
				}
			}
		}
	}
	r.outWorkMask = 0
	for oi := range r.outputs {
		oc := &r.outputs[oi]
		oc.stagedMask, oc.creditMask, oc.ownerMask = 0, 0, 0
		for i, f := range oc.staging {
			if f != nil {
				oc.stagedMask |= 1 << uint(i)
			}
		}
		if oc.stagedMask != 0 || len(oc.bypass) > 0 || (oc.table != nil && oc.table.anyRes) {
			r.outWorkMask |= 1 << uint(oi)
		}
		for v, c := range oc.credits {
			if c > 0 {
				oc.creditMask |= 1 << uint(v)
			}
		}
		for v, o := range oc.vcOwner {
			if o != 0 {
				oc.ownerMask |= 1 << uint(v)
			}
		}
	}
}

// CreditCount reports the credits currently held for direction d and VC
// vc, for the restore's credit check and invariant tests.
func (r *Router) CreditCount(d route.Dir, vc int) int {
	return int(r.outputs[portIndex(d)].credits[vc])
}

// StagedFor reports how many flits staged at the output toward d will
// leave on downstream VC vc; staging each took one of that VC's credits.
func (r *Router) StagedFor(d route.Dir, vc int) int {
	n := 0
	for _, f := range r.outputs[portIndex(d)].staging {
		if f != nil && f.VC == vc {
			n++
		}
	}
	return n
}

// Buffered reports how many flits input VC vc of the controller for
// direction from holds.
func (r *Router) Buffered(from route.Dir, vc int) int {
	return r.inputs[portIndex(from)].vcs[vc].bufLen()
}

// checkMasks verifies every packed mask mirror against the unpacked state
// it shadows, for the property tests. It returns a description of the
// first mismatch, or "".
func (r *Router) checkMasks() string {
	for pi := range r.inputs {
		ic := &r.inputs[pi]
		var occ, routed, stuck uint32
		for v := range ic.vcs {
			if ic.vcs[v].bufLen() > 0 {
				occ |= 1 << uint(v)
			}
			if ic.vcs[v].routed {
				routed |= 1 << uint(v)
			}
			if r.vcIsStuck(pi, v) {
				stuck |= 1 << uint(v)
			}
			if st := &ic.vcs[v]; st.bufLen() > 0 && st.frontHead != st.front().Type.IsHead() {
				return fmt.Sprintf("router %d input %d vc %d: frontHead %v, want %v", r.cfg.ID, pi, v, st.frontHead, st.front().Type.IsHead())
			}
		}
		if occ != ic.occMask {
			return fmt.Sprintf("router %d input %d: occMask %b, want %b", r.cfg.ID, pi, ic.occMask, occ)
		}
		if routed != ic.routedMask {
			return fmt.Sprintf("router %d input %d: routedMask %b, want %b", r.cfg.ID, pi, ic.routedMask, routed)
		}
		if stuck != ic.stuckMask {
			return fmt.Sprintf("router %d input %d: stuckMask %b, want %b", r.cfg.ID, pi, ic.stuckMask, stuck)
		}
	}
	for oi := range r.outputs {
		oc := &r.outputs[oi]
		var staged, credit, owner uint32
		for i, f := range oc.staging {
			if f != nil {
				staged |= 1 << uint(i)
			}
		}
		for v, c := range oc.credits {
			if c > 0 {
				credit |= 1 << uint(v)
			}
		}
		for v, o := range oc.vcOwner {
			if o != 0 {
				owner |= 1 << uint(v)
			}
		}
		if staged != oc.stagedMask {
			return fmt.Sprintf("router %d output %d: stagedMask %b, want %b", r.cfg.ID, oi, oc.stagedMask, staged)
		}
		if credit != oc.creditMask {
			return fmt.Sprintf("router %d output %d: creditMask %b, want %b", r.cfg.ID, oi, oc.creditMask, credit)
		}
		if owner != oc.ownerMask {
			return fmt.Sprintf("router %d output %d: ownerMask %b, want %b", r.cfg.ID, oi, oc.ownerMask, owner)
		}
		// outWorkMask may hold stale extra bits (LinkArbitrate retires
		// them lazily) but must cover every output with real work.
		work := staged != 0 || len(oc.bypass) > 0 || (oc.table != nil && oc.table.anyRes)
		if work && r.outWorkMask&(1<<uint(oi)) == 0 {
			return fmt.Sprintf("router %d output %d: work pending but missing from outWorkMask %b", r.cfg.ID, oi, r.outWorkMask)
		}
	}
	return ""
}
