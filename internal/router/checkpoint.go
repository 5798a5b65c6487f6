package router

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/flit"
	"repro/internal/route"
)

// SaveState serialises the router's dynamic state: per-VC input buffers
// and allocation state machines, arbiter pointers, output staging/bypass/
// credit/VC-ownership state, runtime fault flags, the eject queue, and
// statistics. Configuration (and the static reservation table it implies)
// is not saved — the restored router must be built from the same config.
func (r *Router) SaveState(e *checkpoint.Encoder) {
	for pi := range r.inputs {
		ic := &r.inputs[pi]
		e.Int(ic.arb.next)
		e.U32(uint32(len(ic.vcs)))
		for v := range ic.vcs {
			st := &ic.vcs[v]
			flit.SaveFlits(e, st.buf[st.head:])
			e.U8(uint8(st.outPort))
			e.Int(st.outVC)
			e.Bool(st.routed)
			e.I64(st.routedAt)
			e.I64(st.lastDeq)
			e.U64(st.pktID)
			e.Int(st.pktSrc)
			e.Int(st.pktDst)
		}
	}
	for oi := range r.outputs {
		oc := &r.outputs[oi]
		e.Int(oc.arb.next)
		for _, f := range oc.staging {
			e.Bool(f != nil)
			if f != nil {
				f.SaveState(e)
			}
		}
		flit.SaveFlits(e, oc.bypass)
		e.U32(uint32(r.cfg.NumVCs))
		for _, c := range oc.credits[:r.cfg.NumVCs] {
			e.Int(int(c))
		}
		e.U32(uint32(len(oc.vcOwner)))
		for _, o := range oc.vcOwner {
			e.U64(o)
		}
	}
	for _, b := range r.stalledIn {
		e.Bool(b)
	}
	for _, s := range r.stuckVC {
		e.Bool(s != nil)
		for _, b := range s {
			e.Bool(b)
		}
	}
	for _, b := range r.deadOut {
		e.Bool(b)
	}
	e.Bool(r.anyDead)
	flit.SaveFlits(e, r.ejectQ)
	e.I64(r.Stats.Routed)
	e.I64(r.Stats.SwitchMoves)
	e.I64(r.Stats.DroppedPackets)
	e.I64(r.Stats.DroppedFlits)
	e.I64(r.Stats.Ejected)
	e.I64(r.Stats.BypassMoves)
	e.I64(r.Stats.FaultDroppedFlits)
	e.I64(r.Stats.FaultDroppedPackets)
	e.I64(r.Stats.AbortedPackets)
}

// RestoreState restores a router saved with SaveState into a router built
// from the same configuration. Buffered flits are drawn from pool, and
// the incremental occupancy count is recomputed from the restored
// structures. State a live router never reaches fails the decoder with
// the router, port and VC named (see invalidVC, invalidStaged and, for a
// deflection router, invalidDeflect), so a hostile or corrupt checkpoint
// is an error, not a panic a cycle later.
func (r *Router) RestoreState(d *checkpoint.Decoder, pool *flit.Pool) {
	for pi := range r.inputs {
		ic := &r.inputs[pi]
		ic.arb.next = d.Int()
		if d.Err() == nil && (ic.arb.next < 0 || ic.arb.next >= ic.arb.n) {
			d.Fail("router %d: input %v: VC arbiter pointer %d outside [0,%d)", r.cfg.ID, route.Dir(pi), ic.arb.next, ic.arb.n)
			return
		}
		n := d.Count(1)
		if n != len(ic.vcs) {
			if d.Err() == nil {
				d.Fail("router %d: input VC count mismatch: checkpoint %d, router %d", r.cfg.ID, n, len(ic.vcs))
			}
			return
		}
		for v := range ic.vcs {
			st := &ic.vcs[v]
			for i := range st.buf {
				st.buf[i] = nil
			}
			st.buf = flit.RestoreFlits(d, st.buf[:0], pool)
			st.head = 0
			st.outPort = route.Dir(d.U8())
			st.outVC = d.Int()
			st.routed = d.Bool()
			st.routedAt = d.I64()
			st.lastDeq = d.I64()
			st.pktID = d.U64()
			st.pktSrc = d.Int()
			st.pktDst = d.Int()
			if d.Err() != nil {
				return
			}
			if msg := r.invalidVC(st, v); msg != "" {
				d.Fail("router %d: input %v VC %d: %s", r.cfg.ID, route.Dir(pi), v, msg)
				return
			}
		}
	}
	for oi := range r.outputs {
		oc := &r.outputs[oi]
		oc.arb.next = d.Int()
		if d.Err() == nil && (oc.arb.next < 0 || oc.arb.next >= oc.arb.n) {
			d.Fail("router %d: output %v: port arbiter pointer %d outside [0,%d)", r.cfg.ID, route.Dir(oi), oc.arb.next, oc.arb.n)
			return
		}
		for i := range oc.staging {
			oc.staging[i] = nil
			if d.Bool() {
				oc.staging[i] = flit.RestoreFlit(d, pool)
			}
		}
		oc.bypass = flit.RestoreFlits(d, oc.bypass[:0], pool)
		if d.Err() != nil {
			return
		}
		if msg := r.invalidStaged(oc); msg != "" {
			d.Fail("router %d: output %v: %s", r.cfg.ID, route.Dir(oi), msg)
			return
		}
		nc := d.Count(8)
		if nc != r.cfg.NumVCs {
			if d.Err() == nil {
				d.Fail("router %d: credit width mismatch: checkpoint %d, router %d", r.cfg.ID, nc, r.cfg.NumVCs)
			}
			return
		}
		for i := 0; i < nc; i++ {
			oc.credits[i] = int32(d.Int())
		}
		no := d.Count(8)
		if no != len(oc.vcOwner) {
			if d.Err() == nil {
				d.Fail("router %d: VC owner width mismatch: checkpoint %d, router %d", r.cfg.ID, no, len(oc.vcOwner))
			}
			return
		}
		for i := range oc.vcOwner {
			oc.vcOwner[i] = d.U64()
		}
	}
	for i := range r.stalledIn {
		r.stalledIn[i] = d.Bool()
	}
	for i := range r.stuckVC {
		r.stuckVC[i] = nil
		if d.Bool() {
			s := make([]bool, r.cfg.NumVCs)
			for j := range s {
				s[j] = d.Bool()
			}
			r.stuckVC[i] = s
		}
	}
	for i := range r.deadOut {
		r.deadOut[i] = d.Bool()
	}
	r.anyDead = d.Bool()
	r.ejectQ = flit.RestoreFlits(d, r.ejectQ[:0], pool)
	r.Stats.Routed = d.I64()
	r.Stats.SwitchMoves = d.I64()
	r.Stats.DroppedPackets = d.I64()
	r.Stats.DroppedFlits = d.I64()
	r.Stats.Ejected = d.I64()
	r.Stats.BypassMoves = d.I64()
	r.Stats.FaultDroppedFlits = d.I64()
	r.Stats.FaultDroppedPackets = d.I64()
	r.Stats.AbortedPackets = d.I64()
	if d.Err() == nil {
		r.occ = r.OccupancyRecount()
		r.rebuildMasks()
		if r.cfg.Mode == ModeDeflect {
			if msg := r.invalidDeflect(); msg != "" {
				d.Fail("router %d: %s", r.cfg.ID, msg)
			}
		}
	}
}

// invalidVC describes why restored input VC v (st) holds state a live
// router never reaches, or returns "". Each case would break the next
// cycle: more flits than the VC's BufFlits+1 slots (the +1 is
// AbandonInput's abort tail), a flit filed under another VC (its credit
// would return on the wrong VC), an output port or downstream VC that
// indexes past the output controllers or credit counters, or an unrouted
// VC whose front flit is not a head, which RouteCompute rejects.
func (r *Router) invalidVC(st *vcState, v int) string {
	if n := st.bufLen(); n > r.cfg.BufFlits+1 {
		return fmt.Sprintf("holds %d flits, more than its %d slots", n, r.cfg.BufFlits+1)
	}
	for _, f := range st.buf[st.head:] {
		if f.VC != v {
			return fmt.Sprintf("holds a flit of VC %d", f.VC)
		}
	}
	if st.outPort >= NumPorts {
		return fmt.Sprintf("output port %d outside [0,%d)", st.outPort, NumPorts)
	}
	if st.outVC < -1 || st.outVC >= r.cfg.NumVCs {
		return fmt.Sprintf("output VC %d outside [-1,%d)", st.outVC, r.cfg.NumVCs)
	}
	if !st.routed && st.bufLen() > 0 && !st.front().Type.IsHead() {
		return fmt.Sprintf("unrouted with a %v flit at its front", st.front().Type)
	}
	return ""
}

// invalidStaged describes why a restored output controller's staged or
// bypassed flits could not have come from a live router, or returns "":
// every flit there has already been given a VC in [0, NumVCs), and
// sending a tail on another VC would index past the VC-owner words.
func (r *Router) invalidStaged(oc *outputController) string {
	for i, f := range oc.staging {
		if f != nil && (f.VC < 0 || f.VC >= r.cfg.NumVCs) {
			return fmt.Sprintf("flit staged from input %v on VC %d outside [0,%d)", route.Dir(i), f.VC, r.cfg.NumVCs)
		}
	}
	for _, f := range oc.bypass {
		if f.VC < 0 || f.VC >= r.cfg.NumVCs {
			return fmt.Sprintf("bypassed flit on VC %d outside [0,%d)", f.VC, r.cfg.NumVCs)
		}
	}
	return ""
}
