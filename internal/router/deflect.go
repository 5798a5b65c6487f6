package router

import (
	"fmt"
	"sort"

	"repro/internal/flit"
	"repro/internal/route"
)

// DeflectRouter is the misrouting flow-control variant of §3.2: "if packets
// are dropped or misrouted when they encounter contention very little
// buffering is required. However, dropping and misrouting protocols reduce
// performance and increase wire loading and hence power dissipation."
//
// It is a hot-potato router: each input holds at most one single-flit
// packet; every buffered packet leaves every cycle, on its preferred
// (dimension-ordered) output if it wins it, otherwise on any free output
// (a deflection). Because deflections invalidate source routes, packets are
// destination-routed: the router recomputes the preferred port from the
// packet's destination each cycle via the RouteFunc.
type DeflectRouter struct {
	id int
	// RouteFunc reports the preferred output direction from this tile
	// toward dst (never Local unless dst is this tile).
	routeFunc func(tile, dst int) route.Dir

	inputs  [NumPorts]*flit.Flit
	outLink [NumPorts]linkSender
	ejectQ  []*flit.Flit
	// sentMask has a bit per output port that sent since SentOutputs.
	sentMask uint32

	Stats DeflectStats
}

// linkSender is the subset of link.Link the deflection router needs; it
// keeps the deflection router testable without real links.
type linkSender interface {
	CanSend() bool
	Send(f *flit.Flit) error
}

// DeflectStats counts deflection-router events.
type DeflectStats struct {
	Moves       int64
	Deflections int64
	Ejected     int64
}

// NewDeflect returns a deflection router for the given tile.
func NewDeflect(id int, routeFunc func(tile, dst int) route.Dir) *DeflectRouter {
	return &DeflectRouter{id: id, routeFunc: routeFunc}
}

// ID reports the tile id.
func (r *DeflectRouter) ID() int { return r.id }

// SetOutLink attaches the outgoing link in direction d.
func (r *DeflectRouter) SetOutLink(d route.Dir, l linkSender) {
	r.outLink[portIndex(d)] = l
}

// CanInject reports whether the local input register is free. A deflection
// network accepts an injection only when a cycle's switch allocation left
// the local slot empty.
func (r *DeflectRouter) CanInject() bool {
	return r.inputs[portIndex(route.Local)] == nil
}

// AcceptFlit receives a single-flit packet on the given input.
func (r *DeflectRouter) AcceptFlit(f *flit.Flit, from route.Dir) {
	if f.Type != flit.HeadTail {
		panic(fmt.Sprintf("deflect %d: multi-flit packet %v", r.id, f))
	}
	if r.inputs[portIndex(from)] != nil {
		panic(fmt.Sprintf("deflect %d: input %v overrun", r.id, from))
	}
	r.inputs[portIndex(from)] = f
}

// Arbitrate runs one cycle of hot-potato switching: every buffered packet
// is matched to an output, oldest packet first; losers deflect to any free
// compass output. Matched packets are sent immediately.
//
// Compass arrivals always drain: a tile has exactly as many outgoing as
// incoming links, so the (at most) one arrival per link can always be
// matched, possibly deflected. The locally injected packet goes last and
// may stay in its register when every output is taken — which is exactly
// when CanInject goes false and the tile must hold off injecting, the
// standard deflection-network injection rule.
func (r *DeflectRouter) Arbitrate(now int64) {
	// Order inputs by packet age (oldest first) for livelock resistance;
	// the local injection register is always considered last.
	order := make([]int, 0, NumPorts)
	for i, f := range r.inputs {
		if f != nil && route.Dir(i) != route.Local {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		fa, fb := r.inputs[order[a]], r.inputs[order[b]]
		if fa.Birth != fb.Birth {
			return fa.Birth < fb.Birth
		}
		return fa.PacketID < fb.PacketID
	})
	if r.inputs[portIndex(route.Local)] != nil {
		order = append(order, portIndex(route.Local))
	}
	taken := [NumPorts]bool{}
	for _, pi := range order {
		f := r.inputs[pi]
		fromLocal := route.Dir(pi) == route.Local
		want := r.routeFunc(r.id, f.Dst)
		out := -1
		if want == route.Local {
			if !taken[portIndex(route.Local)] {
				out = portIndex(route.Local)
			}
		} else if !taken[portIndex(want)] && r.linkFree(want) {
			out = portIndex(want)
		}
		if out < 0 {
			// Deflect: any free compass output with a sendable link.
			for _, d := range []route.Dir{route.North, route.East, route.South, route.West} {
				if !taken[portIndex(d)] && r.linkFree(d) {
					out = portIndex(d)
					r.Stats.Deflections++
					break
				}
			}
		}
		if out < 0 {
			if !fromLocal {
				panic(fmt.Sprintf("deflect %d: compass arrival %v has no output", r.id, f))
			}
			// The injected packet waits in its register; CanInject stays
			// false so the port will not overrun it.
			continue
		}
		taken[out] = true
		r.inputs[pi] = nil
		r.Stats.Moves++
		if route.Dir(out) == route.Local {
			r.ejectQ = append(r.ejectQ, f)
			r.Stats.Ejected++
			continue
		}
		if err := r.outLink[out].Send(f); err != nil {
			panic(fmt.Sprintf("deflect %d: %v", r.id, err))
		}
		r.sentMask |= 1 << uint(out)
	}
}

// SentOutputs returns and clears the packed set of output ports that sent
// a flit since the last call, as Router's does. Bit i = port i.
func (r *DeflectRouter) SentOutputs() uint32 {
	m := r.sentMask
	r.sentMask = 0
	return m
}

func (r *DeflectRouter) linkFree(d route.Dir) bool {
	l := r.outLink[portIndex(d)]
	return l != nil && l.CanSend()
}

// Eject returns packets delivered to the tile this cycle.
func (r *DeflectRouter) Eject() []*flit.Flit {
	out := r.ejectQ
	r.ejectQ = nil
	return out
}

// Occupancy reports buffered packets.
func (r *DeflectRouter) Occupancy() int {
	n := len(r.ejectQ)
	for _, f := range r.inputs {
		if f != nil {
			n++
		}
	}
	return n
}
