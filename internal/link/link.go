package link

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Link is one unidirectional inter-router channel: a fixed-latency pipe
// over a physical wire bundle, with optional serialization when the bundle
// is narrower than a flit, and a reverse credit channel for the
// virtual-channel flow control of §2.3 ("credits for buffer allocation are
// piggybacked on flits travelling in the reverse direction"; the model
// carries them on a dedicated reverse pipe with the same latency).
type Link struct {
	// From and Dir name the channel in error messages: the sending tile
	// and the direction the channel leaves it by.
	From int
	Dir  route.Dir

	// pipe and credits are inline values, not pointers: the per-cycle
	// Deliver/CanSend path reads their occupancy counters from the Link's
	// own cache lines instead of chasing into separate heap objects.
	pipe    Pipe[*flit.Flit]
	credits Pipe[int] // VC indices of freed buffer slots, travelling upstream

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

	// Util counts occupied cycles; Util.Rate() is the §4.4 duty factor.
	Util stats.Counter

	// pendingCredits is a queue of freed-slot VC indices awaiting the
	// reverse wires; creditHead indexes its logical front so dequeuing is
	// O(1) without reslicing away reusable capacity.
	pendingCredits []int
	creditHead     int

	// creditBuf backs the creditVCs slice returned by Deliver, reused
	// every cycle (see Deliver's contract).
	creditBuf []int

	// pool, when non-nil, receives flits the link destroys (dead-channel
	// drops) or replaces (physical-layer copies), so the flit pool's
	// accounting stays balanced.
	pool *flit.Pool

	// probe, when non-nil, accrues the channel's telemetry counters
	// (flits, credits); nil is the zero-overhead disabled path.
	probe *telemetry.LinkProbe

	// Elastic channel state (§3.3, ref [4] "Elastic Interconnects"):
	// the repeaters along the wire double as flit latches with local
	// ready/valid backpressure, so the receiving router can stall the wire
	// instead of spending credit-covered buffer space. stages[0] is the
	// receiver end.
	elastic bool
	stages  []*flit.Flit

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
	LatencyCycles int // wire traversal latency (default 1)
	SerdesCycles  int // cycles per flit on the wires (default 1)

	// Elastic turns the wire into an elastic channel: its LatencyCycles
	// repeater stages buffer flits with hop-by-hop backpressure, and the
	// receiver pops flits only when it has space (DeliverElastic). No
	// credits are needed; the flow-control loop closes at the wire.
	Elastic bool
}

// New returns a link from the configuration: a one-link NewAll.
func New(cfg Config) *Link { return &NewAll(cfg, 1)[0] }

// NewAll returns count links built from cfg. Their flit pipes, credit
// pipes and elastic stages are carved from one slab per kind, each slice
// cut with a full slice expression so no link's slots can run into the
// next link's. Each link starts ideal (nil Phys) with zero length; the
// caller sets From, Dir, LengthPitches and Phys per channel.
func NewAll(cfg Config, count int) []Link {
	lat := max(cfg.LatencyCycles, 1)
	serdes := max(cfg.SerdesCycles, 1)
	ls := make([]Link, count)
	flitSlots := make([]slot[*flit.Flit], count*lat)
	creditSlots := make([]slot[int], count*lat)
	var stages []*flit.Flit
	if cfg.Elastic {
		stages = make([]*flit.Flit, count*lat)
	}
	for i := range ls {
		lo, hi := i*lat, (i+1)*lat
		l := &ls[i]
		l.pipe.slots = flitSlots[lo:hi:hi]
		l.credits.slots = creditSlots[lo:hi:hi]
		l.SerdesCycles = serdes
		if cfg.Elastic {
			l.elastic = true
			l.stages = stages[lo:hi:hi]
		}
	}
	return ls
}

// Elastic reports whether the link is an elastic channel.
func (l *Link) Elastic() bool { return l.elastic }

// SetPool attaches the owning network's flit pool. Flits the link drops
// (dead channel) or replaces (physical-layer copy) are recycled into it.
func (l *Link) SetPool(p *flit.Pool) { l.pool = p }

// SetProbe attaches the channel's telemetry probe (nil disables it).
func (l *Link) SetProbe(p *telemetry.LinkProbe) { l.probe = p }

// Idle reports whether the link has nothing to do this cycle beyond
// ticking its utilization counter: wires free, no flits or credits in
// flight, none waiting. The delivery phase uses it to skip idle links.
func (l *Link) Idle() bool {
	if l.busy != 0 || l.creditHead < len(l.pendingCredits) || !l.credits.Empty() {
		return false
	}
	if l.elastic {
		for _, f := range l.stages {
			if f != nil {
				return false
			}
		}
		return true
	}
	return l.pipe.Empty()
}

// EntryAlwaysFree reports whether the link's input register is free on
// every cycle once that cycle's Deliver has run: a non-elastic link with
// SerdesCycles == 1 shifts its entry slot empty on each delivery and its
// wires are never busy across a cycle boundary, so a sender arbitrating
// after the delivery phase may skip the CanSend check entirely. Elastic
// channels (entry stage backpressured by the receiver) and serialized
// links (wires busy for SerdesCycles) must still be polled.
func (l *Link) EntryAlwaysFree() bool { return !l.elastic && l.SerdesCycles == 1 }

// SetDown kills (or revives) the channel. A dead channel keeps accepting
// traffic at the sending end but delivers nothing: flits and credits
// vanish on the wires, which is what makes credit-starvation watchdogs the
// right detector.
func (l *Link) SetDown(down bool) { l.down = down }

// Down reports whether the channel is dead.
func (l *Link) Down() bool { return l.down }

// CanSend reports whether a flit may enter the link this cycle (wires idle
// and input register or entry stage free).
func (l *Link) CanSend() bool {
	if l.busy != 0 {
		return false
	}
	if l.elastic {
		return l.stages[len(l.stages)-1] == nil
	}
	return l.pipe.CanSend()
}

// Send places a flit onto the link. The caller must have checked CanSend.
func (l *Link) Send(f *flit.Flit) error {
	if !l.CanSend() {
		return fmt.Errorf("link %d-%v: send while busy", l.From, l.Dir)
	}
	if l.elastic {
		l.stages[len(l.stages)-1] = f
	} else if err := l.pipe.Send(f); err != nil {
		return err
	}
	l.busy = l.SerdesCycles
	l.ActiveBits += int64(f.PayloadBits() + flit.OverheadBits)
	if l.probe != nil {
		l.probe.OnSend(f.Type.IsHead())
	}
	return nil
}

// SendCredit returns one freed buffer slot for the given VC to the
// upstream router. Multiple credits per cycle are coalesced onto the
// reverse channel over successive cycles.
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
// payload), or nil. Credits completing their reverse traversal are
// returned in creditVCs, a slice that is only valid until the next
// Deliver call (the link reuses its backing array every cycle). Call
// exactly once per cycle, in the global delivery phase.
func (l *Link) Deliver() (f *flit.Flit, creditVCs []int) {
	if l.busy > 0 {
		l.busy--
		l.Util.Tick(1)
	} else {
		l.Util.Tick(0)
	}
	creditVCs = l.creditBuf[:0]
	if vc, ok := l.credits.Shift(); ok {
		if l.down {
			l.FaultLostCredits++
		} else {
			creditVCs = append(creditVCs, vc)
			if l.probe != nil {
				l.probe.OnCredit()
			}
		}
	}
	l.creditBuf = creditVCs
	if l.creditHead < len(l.pendingCredits) && l.credits.CanSend() {
		// One credit enters the reverse wires per cycle.
		if err := l.credits.Send(l.pendingCredits[l.creditHead]); err == nil {
			l.creditHead++
		}
	}
	out, ok := l.pipe.Shift()
	if !ok {
		return nil, creditVCs
	}
	if l.down {
		l.FaultLostFlits++
		if l.pool != nil {
			l.pool.Put(out)
		}
		return nil, creditVCs
	}
	if l.Phys != nil && out.Data != nil {
		out = l.physCopy(out)
	}
	return out, creditVCs
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

// DeliverElastic advances an elastic link by one cycle: the head flit is
// offered to accept and pops only if accepted; the remaining flits slide
// toward the receiver through free stages. Call exactly once per cycle in
// the delivery phase instead of Deliver.
func (l *Link) DeliverElastic(accept func(f *flit.Flit) bool) *flit.Flit {
	if !l.elastic {
		panic(fmt.Sprintf("link %d-%v: DeliverElastic on a non-elastic link", l.From, l.Dir))
	}
	if l.busy > 0 {
		l.busy--
		l.Util.Tick(1)
	} else {
		l.Util.Tick(0)
	}
	var out *flit.Flit
	if head := l.stages[0]; head != nil && l.down {
		l.FaultLostFlits++
		l.stages[0] = nil
		if l.pool != nil {
			l.pool.Put(head)
		}
	} else if head != nil && accept(head) {
		out = head
		l.stages[0] = nil
	}
	for i := 0; i < len(l.stages)-1; i++ {
		if l.stages[i] == nil {
			l.stages[i] = l.stages[i+1]
			l.stages[i+1] = nil
		}
	}
	if out != nil && l.Phys != nil && out.Data != nil {
		out = l.physCopy(out)
	}
	return out
}

// InFlight reports the number of flits inside the link.
func (l *Link) InFlight() int {
	if l.elastic {
		n := 0
		for _, f := range l.stages {
			if f != nil {
				n++
			}
		}
		return n
	}
	return l.pipe.InFlight()
}

// Latency reports the link's traversal latency in cycles.
func (l *Link) Latency() int { return l.pipe.Latency() }
