package router

import (
	"fmt"
	"math/bits"

	"repro/internal/flit"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// This file is ModeDeflect, the misrouting flow control of §3.2: "if
// packets are dropped or misrouted when they encounter contention very
// little buffering is required. However, dropping and misrouting
// protocols reduce performance and increase wire loading and hence power
// dissipation." Each input holds at most one single-flit packet, in the
// buffer of its VC. Deflections invalidate source routes, so packets are
// routed by destination, through the network's dimension-order step
// function, and nothing is ever routed, staged, bypassed or credited:
// RouteCompute and SwitchArbitrate have no work, LinkArbitrate does it all.

// deflectArbitrate is LinkArbitrate under ModeDeflect: every buffered
// packet is matched to an output, oldest packet first; losers deflect to
// any free compass output. Matched packets are sent immediately, or
// queued for ejection.
//
// Compass arrivals always drain: a tile has exactly as many outgoing as
// incoming links, so the (at most) one arrival per link can always be
// matched, possibly deflected. The locally injected packet goes last and
// may stay in its register when every output is taken — which is exactly
// when CanInject goes false and the tile must hold off injecting, the
// standard deflection-network injection rule.
func (r *Router) deflectArbitrate(now int64) {
	// The at most four compass arrivals, oldest first for livelock
	// resistance (an insertion sort, stable on ties); the local injection
	// register is always considered last.
	var order [NumPorts]*inputController
	n := 0
	for pi := range r.inputs {
		ic := &r.inputs[pi]
		if ic.occMask == 0 || ic.dir == route.Local {
			continue
		}
		f := ic.deflectFront()
		i := n
		for ; i > 0 && older(f, order[i-1].deflectFront()); i-- {
			order[i] = order[i-1]
		}
		order[i] = ic
		n++
	}
	if local := &r.inputs[route.Local]; local.occMask != 0 {
		order[n] = local
		n++
	}
	var taken uint32 // bit i: output port i is matched this cycle
	for _, ic := range order[:n] {
		f := ic.deflectFront()
		out := r.deflectOutput(f.Dst, taken)
		if out < 0 {
			if ic.dir != route.Local {
				panic(fmt.Sprintf("router %d: compass arrival %v has no output", r.cfg.ID, f))
			}
			// The injected packet waits in its register; CanInject stays
			// false so the port will not overrun it.
			continue
		}
		taken |= 1 << uint(out)
		ic.pop(f.VC)
		r.Stats.SwitchMoves++
		if r.probe != nil {
			r.probe.Trace(telemetry.EvXbar, now, f.PacketID, int32(r.cfg.ID), int32(f.VC))
		}
		if route.Dir(out) == route.Local {
			r.ejectQ = append(r.ejectQ, f)
			r.Stats.Ejected++
			continue
		}
		r.mustSend(&r.outputs[out], f)
	}
}

// deflectFront returns the one flit a deflection input holds.
func (ic *inputController) deflectFront() *flit.Flit {
	return ic.vcs[bits.TrailingZeros32(ic.occMask)].front()
}

// older orders deflection contenders: earlier birth, then lower packet id.
func older(a, b *flit.Flit) bool {
	return a.Birth < b.Birth || a.Birth == b.Birth && a.PacketID < b.PacketID
}

// deflectOutput picks the output for a packet bound to dst given the
// outputs already taken this cycle: its dimension-order step if free,
// else the first free compass output in N, E, S, W order (a deflection),
// or -1 when none is free. A packet at its destination ejects if the tile
// output is free and deflects otherwise.
func (r *Router) deflectOutput(dst int, taken uint32) int {
	want := r.stepFn(r.cfg.ID, dst)
	if want == route.Local {
		if taken&(1<<uint(route.Local)) == 0 {
			return int(route.Local)
		}
	} else if taken&(1<<uint(want)) == 0 && r.linkFree(want) {
		return int(want)
	}
	for d := route.North; d <= route.West; d++ {
		if taken&(1<<uint(d)) == 0 && r.linkFree(d) {
			return int(d)
		}
	}
	return -1
}

// linkFree reports whether the output in direction d has a link that can
// take a flit this cycle.
func (r *Router) linkFree(d route.Dir) bool {
	oc := &r.outputs[d]
	return oc.link != nil && (oc.entryFree || oc.link.CanSend())
}

// invalidDeflect describes why a restored deflection router holds state
// a live one never reaches between cycles, when checkpoints are taken, or
// returns "": a routed VC, more than one flit in an input, a flit in a
// compass input (every arrival leaves the cycle it arrives, and one
// restored there would overrun on the next delivery), a flit of a
// multi-flit packet, or a staged or bypassed flit.
func (r *Router) invalidDeflect() string {
	for pi := range r.inputs {
		ic := &r.inputs[pi]
		held := 0
		for m := ic.occMask; m != 0; m &= m - 1 {
			held += ic.vcs[bits.TrailingZeros32(m)].bufLen()
		}
		switch {
		case ic.routedMask != 0:
			return fmt.Sprintf("input %v VC %d is routed; deflection routes nothing", ic.dir, bits.TrailingZeros32(ic.routedMask))
		case held > 1:
			return fmt.Sprintf("input %v holds %d flits; a deflection input holds at most one", ic.dir, held)
		case held == 1 && ic.dir != route.Local:
			return fmt.Sprintf("input %v holds a flit between cycles; compass arrivals leave the cycle they arrive", ic.dir)
		case held == 1 && ic.deflectFront().Type != flit.HeadTail:
			return fmt.Sprintf("input %v holds a %v flit; deflection carries single-flit packets", ic.dir, ic.deflectFront().Type)
		}
	}
	for oi := range r.outputs {
		if oc := &r.outputs[oi]; oc.stagedMask != 0 || len(oc.bypass) > 0 {
			return fmt.Sprintf("output %v holds a staged or bypassed flit; deflection stages nothing", oc.dir)
		}
	}
	return ""
}
