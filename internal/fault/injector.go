package fault

import (
	"fmt"
	"sort"

	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Target is the slice of a network the injector manipulates. It is an
// interface so this package does not depend on internal/network (which
// imports this package for the fault Map).
type Target interface {
	// Kernel exposes the simulation kernel: the injector registers its
	// phase there and draws its stochastic schedule from the fault stream
	// of the kernel's seed.
	Kernel() *sim.Kernel
	// NumTiles reports the number of router tiles.
	NumTiles() int
	// NumLinks reports the number of unidirectional channels.
	NumLinks() int
	// LinkEndpoints reports channel i's source tile, direction, and
	// destination tile, in the deterministic order of topology.Links.
	LinkEndpoints(i int) (from int, dir route.Dir, to int)
	// SetLinkDown makes channel i drop every flit and credit (or restores
	// it).
	SetLinkDown(i int, down bool)
	// SetLinkFlip sets channel i's transient bit-flip probability. It
	// errors when the network was built without the physical wire layer.
	SetLinkFlip(i int, prob float64) error
	// SetPortStall freezes (or thaws) the input controller of tile's port.
	SetPortStall(tile int, port route.Dir, on bool)
	// SetVCStuck wedges (or frees) one VC of tile's input controller.
	SetVCStuck(tile int, port route.Dir, vc int, on bool)
}

// Applied is one fault application, logged for campaign reports: which
// event fired, when, and — for faults a credit watchdog can detect — the
// channel a detection would name.
type Applied struct {
	Event Event
	At    int64
	// Watched is the channel whose credit starvation reveals this fault:
	// the faulted link itself for LinkKill, and the link feeding the
	// stalled input for PortStall. Watched.From is -1 when no single
	// channel is implicated (BitFlip, VCStuck).
	Watched LinkID
}

// Injector drives a fault campaign: it expands the stochastic model into
// concrete events at construction time (deterministically, from the fault
// stream of the kernel's seed), then applies and revokes events cycle by
// cycle as a simulation phase.
type Injector struct {
	target Target
	events []Event // sorted by At, stable
	next   int
	revoke []Event // applied events awaiting their Until cycle

	// Log records every applied event in application order.
	Log []Applied
	// Skipped counts events that could not be applied (e.g. a BitFlip on
	// a network without physical wires).
	Skipped int

	// probe, when non-nil, receives an OnFault notification for every
	// event that takes effect.
	probe *telemetry.Probe
}

// SetProbe attaches the telemetry probe (nil disables notifications).
func (inj *Injector) SetProbe(p *telemetry.Probe) { inj.probe = p }

// NewInjector builds an injector over target from scheduled events plus an
// optional stochastic model: when mtbf > 0, fault arrivals are drawn as a
// Poisson process with the given mean cycles between faults over [0,
// horizon), choosing uniformly among kinds (default: LinkKill, PortStall,
// VCStuck). All randomness comes from the fault stream of the kernel's
// seed, so the same seed always yields the same campaign.
func NewInjector(t Target, events []Event, mtbf float64, horizon int64, kinds []Kind) (*Injector, error) {
	inj := &Injector{target: t}
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return nil, err
		}
		resolved, err := inj.resolve(e)
		if err != nil {
			return nil, err
		}
		inj.events = append(inj.events, resolved)
	}
	if mtbf > 0 {
		if horizon <= 0 {
			return nil, fmt.Errorf("fault: stochastic model needs a positive horizon")
		}
		inj.events = append(inj.events, inj.expand(mtbf, horizon, kinds)...)
	}
	sort.SliceStable(inj.events, func(i, j int) bool { return inj.events[i].At < inj.events[j].At })
	return inj, nil
}

// resolve canonicalizes an event's target to concrete indices and checks
// ranges against the network.
func (inj *Injector) resolve(e Event) (Event, error) {
	t := inj.target
	switch e.Kind {
	case LinkKill, BitFlip:
		if e.Link >= 0 {
			if e.Link >= t.NumLinks() {
				return e, fmt.Errorf("fault: link %d outside [0,%d)", e.Link, t.NumLinks())
			}
			return e, nil
		}
		for i := 0; i < t.NumLinks(); i++ {
			from, dir, _ := t.LinkEndpoints(i)
			if from == e.From && dir == e.Dir {
				e.Link = i
				return e, nil
			}
		}
		return e, fmt.Errorf("fault: no channel leaves tile %d in direction %v", e.From, e.Dir)
	case PortStall, VCStuck:
		if e.Tile < 0 || e.Tile >= t.NumTiles() {
			return e, fmt.Errorf("fault: tile %d outside [0,%d)", e.Tile, t.NumTiles())
		}
	}
	return e, nil
}

// expand draws the stochastic campaign. Link kills are permanent; stalls,
// stuck VCs, and flips are transient with a drawn duration, modelling
// glitches the network must ride through.
func (inj *Injector) expand(mtbf float64, horizon int64, kinds []Kind) []Event {
	if len(kinds) == 0 {
		kinds = []Kind{LinkKill, PortStall, VCStuck}
	}
	rng := sim.NewStream(inj.target.Kernel().Seed(), sim.FaultStream)
	var out []Event
	at := 0.0
	for {
		at += rng.ExpFloat64() * mtbf
		if int64(at) >= horizon {
			return out
		}
		link := rng.IntN(inj.target.NumLinks())
		from, dir, to := inj.target.LinkEndpoints(link)
		_ = from
		duration := int64(200 + rng.IntN(1800))
		e := Event{Kind: kinds[rng.IntN(len(kinds))], At: int64(at), Link: -1, From: -1, Tile: -1, VC: -1}
		switch e.Kind {
		case LinkKill:
			e.Link = link
		case BitFlip:
			e.Link = link
			e.Prob = 0.01
			e.Until = e.At + duration
		case PortStall:
			e.Tile, e.Port = to, dir.Opposite()
			e.Until = e.At + duration
		case VCStuck:
			e.Tile, e.Port, e.VC = to, dir.Opposite(), rng.IntN(8)
			e.Until = e.At + duration
		}
		out = append(out, e)
	}
}

// Attach registers the injector's phase on the kernel. Call once, after
// the network's own phases are registered.
func (inj *Injector) Attach() {
	inj.target.Kernel().AddPhase("faults", inj.step)
}

// step applies and revokes the cycle's events.
func (inj *Injector) step(now sim.Cycle) {
	keep := inj.revoke[:0]
	for _, e := range inj.revoke {
		if e.Until <= now {
			inj.apply(e, false, now)
		} else {
			keep = append(keep, e)
		}
	}
	inj.revoke = keep
	for inj.next < len(inj.events) && inj.events[inj.next].At <= now {
		e := inj.events[inj.next]
		inj.next++
		if !inj.apply(e, true, now) {
			continue
		}
		if e.Until > 0 {
			inj.revoke = append(inj.revoke, e)
		}
	}
}

// apply performs (on=true) or undoes (on=false) one event. It reports
// whether the event took effect.
func (inj *Injector) apply(e Event, on bool, now int64) bool {
	t := inj.target
	watched := LinkID{From: -1}
	switch e.Kind {
	case LinkKill:
		t.SetLinkDown(e.Link, on)
		from, dir, _ := t.LinkEndpoints(e.Link)
		watched = LinkID{From: from, Dir: dir}
	case BitFlip:
		prob := e.Prob
		if !on {
			prob = 0
		}
		if err := t.SetLinkFlip(e.Link, prob); err != nil {
			if on {
				inj.Skipped++
			}
			return false
		}
	case PortStall:
		t.SetPortStall(e.Tile, e.Port, on)
		if w, ok := inj.feedingLink(e.Tile, e.Port); ok {
			watched = w
		}
	case VCStuck:
		t.SetVCStuck(e.Tile, e.Port, e.VC, on)
	}
	if on {
		inj.Log = append(inj.Log, Applied{Event: e, At: now, Watched: watched})
		if inj.probe != nil {
			where := e.Link
			if e.Kind == PortStall || e.Kind == VCStuck {
				where = e.Tile
			}
			inj.probe.OnFault(now, int(e.Kind), where)
		}
	}
	return true
}

// feedingLink reports the channel that delivers into tile's input port: the
// link whose starvation a watchdog sees when that port stalls.
func (inj *Injector) feedingLink(tile int, port route.Dir) (LinkID, bool) {
	for i := 0; i < inj.target.NumLinks(); i++ {
		from, dir, to := inj.target.LinkEndpoints(i)
		if to == tile && dir.Opposite() == port {
			return LinkID{From: from, Dir: dir}, true
		}
	}
	return LinkID{From: -1}, false
}

// Pending reports how many scheduled events have not yet fired.
func (inj *Injector) Pending() int { return len(inj.events) - inj.next }

// Events returns the full expanded schedule, sorted by injection cycle.
func (inj *Injector) Events() []Event { return inj.events }
