// Package link models the inter-router channels of the on-chip network:
// one-cycle wires (a flit or credit driven on cycle t arrives on cycle
// t+1), a physical layer with spare-bit steering around hard faults (§2.5
// of the paper), optional link-level SECDED error correction, and
// serialization when the physical link is narrower (or faster) than a
// flit (§2.3, §3.3).
package link

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// Link is one unidirectional inter-router channel: a one-cycle wire over
// a physical wire bundle, with optional serialization when the bundle is
// narrower than a flit, and a reverse credit wire for the virtual-channel
// flow control of §2.3 ("credits for buffer allocation are piggybacked on
// flits travelling in the reverse direction"; the model carries them on a
// dedicated one-cycle reverse wire). Its wire registers are encoded so
// that a zero Link is idle.
type Link struct {
	// From and Dir name the channel in error messages: the sending tile
	// and the direction the channel leaves it by.
	From int
	Dir  route.Dir

	// wire is the forward wire's flit register: the flit sent this cycle,
	// handed to the receiver by the next delivery. On an elastic channel
	// it is the repeater stage, which holds its flit until the receiver
	// accepts it.
	wire *flit.Flit

	// creditWire is the reverse wire's register: the VC index of the
	// credit in flight plus one, so 0 is an idle wire.
	creditWire int

	Phys *Phys

	// SerdesCycles is the number of link cycles one flit occupies the
	// physical wires: ceil(flitBits / (physBits × speedup)). 1 means a
	// full-width broadside link (§3.1's "wide (almost 300-bit) flit ...
	// sent broadside").
	SerdesCycles int
	busy         int

	// LengthPitches is the physical length of the link in tile pitches,
	// used for energy accounting.
	LengthPitches float64

	// ActiveBits counts the wire bits driven by every flit sent: its
	// payload lanes plus the control overhead (§2.1's Size field keeps
	// the unused lanes quiet). ActiveBits × LengthPitches is the link's
	// share of the §3.1 wire-energy distance term.
	ActiveBits int64

	// BusyCycles counts the cycles the wires were occupied; over the
	// simulation clock it is the §4.4 duty factor.
	BusyCycles int64

	// Flits, head flits and credits carried, read in place by a probe.
	telemetry.LinkCounts

	// pendingCredits is a queue of freed-slot VC indices awaiting the
	// reverse wire; creditHead indexes its logical front so dequeuing is
	// O(1) without reslicing away reusable capacity.
	pendingCredits []int
	creditHead     int

	// pool, when non-nil, receives flits the link destroys (dead-channel
	// drops) or replaces (physical-layer copies), so the flit pool's
	// accounting stays balanced.
	pool *flit.Pool

	// elastic marks an elastic channel (§3.3, ref [4] "Elastic
	// Interconnects"): the repeater on the wire doubles as a flit latch
	// with local ready/valid backpressure, so the receiving router can
	// stall the wire instead of spending credit-covered buffer space.
	elastic bool

	// down marks the channel dead (runtime fault injection or watchdog
	// fencing): the wires still accept flits — the sender cannot tell —
	// but everything in transit is lost, in both directions.
	down bool

	// FaultLostFlits and FaultLostCredits count traffic dropped while the
	// link was down.
	FaultLostFlits   int64
	FaultLostCredits int64
}

// Config parameterizes New and NewAll. It holds only what every link of
// a die shares; the per-channel fields From, Dir, LengthPitches and Phys
// are set on each returned link.
type Config struct {
	SerdesCycles int // cycles per flit on the wires (default 1)

	// Elastic turns the wire into an elastic channel: its repeater stage
	// buffers a flit with hop-by-hop backpressure, and the receiver pops
	// it only when it has space (DeliverElastic). No credits are needed;
	// the flow-control loop closes at the wire.
	Elastic bool
}

// New returns a link from the configuration: a one-link NewAll.
func New(cfg Config) *Link { return &NewAll(cfg, 1)[0] }

// NewAll returns count links built from cfg in one slab. Each link starts
// ideal (nil Phys) with zero length; the caller sets From, Dir,
// LengthPitches and Phys per channel.
func NewAll(cfg Config, count int) []Link {
	serdes := max(cfg.SerdesCycles, 1)
	ls := make([]Link, count)
	for i := range ls {
		ls[i].SerdesCycles = serdes
		ls[i].elastic = cfg.Elastic
	}
	return ls
}

// SetPool attaches the owning network's flit pool. Flits the link drops
// (dead channel) or replaces (physical-layer copy) are recycled into it.
func (l *Link) SetPool(p *flit.Pool) { l.pool = p }

// Idle reports whether the link has nothing to do this cycle: wires free,
// no flit or credit in flight, none waiting. The delivery phase uses it
// to skip idle links.
func (l *Link) Idle() bool {
	return l.busy == 0 && l.wire == nil && l.creditWire == 0 && l.creditHead == len(l.pendingCredits)
}

// EntryAlwaysFree reports whether the link's flit register is free on
// every cycle once that cycle's Deliver has run: a non-elastic link with
// SerdesCycles == 1 empties its register on each delivery and its wires
// are never busy across a cycle boundary, so a sender arbitrating after
// the delivery phase may skip the CanSend check entirely. Elastic
// channels (register backpressured by the receiver) and serialized links
// (wires busy for SerdesCycles) must still be polled.
func (l *Link) EntryAlwaysFree() bool { return !l.elastic && l.SerdesCycles == 1 }

// SetDown kills (or revives) the channel. A dead channel keeps accepting
// traffic at the sending end but delivers nothing: flits and credits
// vanish on the wires, which is what makes credit-starvation watchdogs the
// right detector.
func (l *Link) SetDown(down bool) { l.down = down }

// Down reports whether the channel is dead.
func (l *Link) Down() bool { return l.down }

// CanSend reports whether a flit may enter the link this cycle: wires
// idle and flit register free.
func (l *Link) CanSend() bool { return l.busy == 0 && l.wire == nil }

// Send places a flit onto the link. The caller must have checked CanSend.
func (l *Link) Send(f *flit.Flit) error {
	if !l.CanSend() {
		return fmt.Errorf("link %d-%v: send while busy", l.From, l.Dir)
	}
	l.wire = f
	l.busy = l.SerdesCycles
	l.ActiveBits += int64(f.PayloadBits() + flit.OverheadBits)
	l.Flits++
	if f.Type.IsHead() {
		l.HeadFlits++
	}
	return nil
}

// SendCredit returns one freed buffer slot for the given VC to the
// upstream router. Multiple credits per cycle are coalesced onto the
// reverse wire over successive cycles.
func (l *Link) SendCredit(vc int) {
	if l.creditHead == len(l.pendingCredits) {
		// Queue drained: rewind so the backing array is reused instead of
		// growing without bound.
		l.pendingCredits = l.pendingCredits[:0]
		l.creditHead = 0
	}
	l.pendingCredits = append(l.pendingCredits, vc)
}

// Deliver advances the link by one cycle. It returns the flit completing
// its traversal this cycle (with the physical layer applied to its
// payload), or nil, and the VC of the credit completing its reverse
// traversal, with credited false when none arrives. Call exactly once per
// cycle, in the global delivery phase.
func (l *Link) Deliver() (f *flit.Flit, creditVC int, credited bool) {
	if l.busy > 0 {
		l.busy--
		l.BusyCycles++
	}
	if l.creditWire != 0 {
		if l.down {
			l.FaultLostCredits++
		} else {
			creditVC, credited = l.creditWire-1, true
			l.Credits++
		}
		l.creditWire = 0
	}
	if l.creditHead < len(l.pendingCredits) {
		// One credit enters the reverse wire per cycle.
		l.creditWire = l.pendingCredits[l.creditHead] + 1
		l.creditHead++
	}
	f, l.wire = l.wire, nil
	if f == nil {
		return nil, creditVC, credited
	}
	if l.down {
		l.FaultLostFlits++
		if l.pool != nil {
			l.pool.Put(f)
		}
		return nil, creditVC, credited
	}
	if l.Phys != nil && f.Data != nil {
		f = l.physCopy(f)
	}
	return f, creditVC, credited
}

// physCopy applies the physical layer to a copy of the flit, so the
// sender's flit is never mutated (steering and transient faults change the
// delivered bits, not the injected ones). With a pool attached the copy
// comes from the pool and the original goes back, keeping get/put counts
// balanced.
func (l *Link) physCopy(src *flit.Flit) *flit.Flit {
	var out *flit.Flit
	if l.pool != nil {
		out = l.pool.Get()
	} else {
		out = &flit.Flit{}
	}
	*out = *src
	out.Data = l.Phys.Traverse(src.Data, len(src.Data)*8)
	if l.pool != nil {
		l.pool.Put(src)
	}
	return out
}

// DeliverElastic advances an elastic link by one cycle: the flit in the
// repeater stage is offered to accept and leaves the wire only if
// accepted. Call exactly once per cycle in the delivery phase instead of
// Deliver.
func (l *Link) DeliverElastic(accept func(f *flit.Flit) bool) *flit.Flit {
	if !l.elastic {
		panic(fmt.Sprintf("link %d-%v: DeliverElastic on a non-elastic link", l.From, l.Dir))
	}
	if l.busy > 0 {
		l.busy--
		l.BusyCycles++
	}
	f := l.wire
	if f == nil {
		return nil
	}
	if l.down {
		l.FaultLostFlits++
		l.wire = nil
		if l.pool != nil {
			l.pool.Put(f)
		}
		return nil
	}
	if !accept(f) {
		return nil
	}
	l.wire = nil
	if l.Phys != nil && f.Data != nil {
		f = l.physCopy(f)
	}
	return f
}

// InFlight reports the number of flits inside the link: 1 while the flit
// register holds one, else 0.
func (l *Link) InFlight() int {
	if l.wire != nil {
		return 1
	}
	return 0
}

// Wire returns the flit in the link's flit register, or nil.
func (l *Link) Wire() *flit.Flit { return l.wire }
