// Package fault implements the runtime fault-injection subsystem of the
// reproduction: deterministic fault campaigns over a live network.
//
// Section 2.5 of the paper argues that a packet network masks faults in
// layers — spare-bit steering around hard wire faults, link-level ECC
// against transients, end-to-end retry above the interface. The offline E11
// experiment configures those faults before the simulation starts; this
// package instead injects (and revokes) faults *while the network runs*, so
// the online detection and fault-aware rerouting layers can be exercised:
//
//   - LinkKill: a channel dies; flits and credits on its wires are lost.
//   - BitFlip: a channel's wires flip payload bits with a given probability
//     for an interval, feeding the existing ECC and end-to-end retry layers.
//   - PortStall: a router input controller freezes; buffered flits stop
//     advancing, so upstream credits starve.
//   - VCStuck: one virtual channel of an input controller wedges.
//
// Every fault is an Event, injectable at a cycle and optionally revocable
// at a later cycle. A campaign is a list of scheduled events plus an
// optional stochastic model (mean cycles between faults) that the Injector
// expands from the fault stream of the run's seed, so a campaign is
// bit-for-bit reproducible from its seed.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/route"
)

// Kind is a fault model.
type Kind int

// Fault kinds.
const (
	// LinkKill makes a channel drop every flit and credit on its wires.
	LinkKill Kind = iota
	// BitFlip raises a channel's transient bit-flip probability.
	BitFlip
	// PortStall freezes a router input controller.
	PortStall
	// VCStuck wedges one virtual channel of an input controller.
	VCStuck
)

// String names the kind with its spec keyword.
func (k Kind) String() string {
	switch k {
	case LinkKill:
		return "kill"
	case BitFlip:
		return "flip"
	case PortStall:
		return "stall"
	case VCStuck:
		return "stuck"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindByName parses a spec keyword.
func KindByName(s string) (Kind, error) {
	switch s {
	case "kill":
		return LinkKill, nil
	case "flip":
		return BitFlip, nil
	case "stall":
		return PortStall, nil
	case "stuck":
		return VCStuck, nil
	}
	return 0, fmt.Errorf("fault: unknown kind %q (want kill, flip, stall, or stuck)", s)
}

// Event is one injectable fault. Link faults (LinkKill, BitFlip) address a
// channel either by its index in the network's link list (Link >= 0) or by
// its source tile and direction (Link < 0). Router faults (PortStall,
// VCStuck) address a tile's input controller.
type Event struct {
	Kind  Kind
	At    int64 // injection cycle
	Until int64 // revocation cycle; 0 means permanent

	Link int // link index, or -1 for (From, Dir) addressing
	From int
	Dir  route.Dir

	Tile int
	Port route.Dir
	VC   int

	Prob float64 // BitFlip per-traversal flip probability
}

// Validate checks the event's internal consistency (target ranges against a
// concrete network are checked by the Injector).
func (e Event) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("fault: %v at negative cycle %d", e.Kind, e.At)
	}
	if e.Until != 0 && e.Until <= e.At {
		return fmt.Errorf("fault: %v revoked at %d, not after injection at %d", e.Kind, e.Until, e.At)
	}
	switch e.Kind {
	case LinkKill, BitFlip:
		if e.Link < 0 && e.From < 0 {
			return fmt.Errorf("fault: %v needs link=<index> or from=<tile>,dir=<NESW>", e.Kind)
		}
		if e.Kind == BitFlip && !(e.Prob > 0 && e.Prob <= 1) {
			return fmt.Errorf("fault: flip probability %g outside (0,1]", e.Prob)
		}
	case PortStall, VCStuck:
		if e.Tile < 0 {
			return fmt.Errorf("fault: %v needs tile=<id>", e.Kind)
		}
		if e.Port == route.Local {
			return fmt.Errorf("fault: %v targets a compass port, not the tile port", e.Kind)
		}
		if e.Kind == VCStuck && e.VC < 0 {
			return fmt.Errorf("fault: stuck needs vc=<index>")
		}
	default:
		return fmt.Errorf("fault: invalid kind %d", int(e.Kind))
	}
	return nil
}

// String renders the event in the spec syntax accepted by ParseEvents.
func (e Event) String() string {
	var sb strings.Builder
	sb.WriteString(e.Kind.String())
	switch e.Kind {
	case LinkKill, BitFlip:
		if e.Link >= 0 {
			fmt.Fprintf(&sb, ",link=%d", e.Link)
		} else {
			fmt.Fprintf(&sb, ",from=%d,dir=%v", e.From, e.Dir)
		}
		if e.Kind == BitFlip {
			fmt.Fprintf(&sb, ",p=%g", e.Prob)
		}
	case PortStall:
		fmt.Fprintf(&sb, ",tile=%d,port=%v", e.Tile, e.Port)
	case VCStuck:
		fmt.Fprintf(&sb, ",tile=%d,port=%v,vc=%d", e.Tile, e.Port, e.VC)
	}
	fmt.Fprintf(&sb, ",at=%d", e.At)
	if e.Until != 0 {
		fmt.Fprintf(&sb, ",until=%d", e.Until)
	}
	return sb.String()
}

// FormatEvents renders a list of events as one spec string.
func FormatEvents(events []Event) string {
	parts := make([]string, len(events))
	for i, e := range events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// parseDir parses a compass direction letter.
func parseDir(s string) (route.Dir, error) {
	switch strings.ToUpper(s) {
	case "N":
		return route.North, nil
	case "E":
		return route.East, nil
	case "S":
		return route.South, nil
	case "W":
		return route.West, nil
	}
	return 0, fmt.Errorf("fault: direction %q (want N, E, S, or W)", s)
}

// ParseEvents parses a fault campaign spec: semicolon-separated events, each
// a kind keyword followed by comma-separated key=value fields.
//
//	kill,link=12,at=500
//	kill,from=3,dir=E,at=500,until=900
//	flip,link=4,p=0.02,at=100,until=600
//	stall,tile=5,port=W,at=2000,until=2600
//	stuck,tile=1,port=N,vc=3,at=100
//
// The empty string parses to no events.
func ParseEvents(spec string) ([]Event, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var events []Event
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ",")
		kind, err := KindByName(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, err
		}
		e := Event{Kind: kind, Link: -1, From: -1, Tile: -1, VC: -1}
		for _, kv := range fields[1:] {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("fault: field %q in %q is not key=value", kv, part)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			switch key {
			case "dir", "port":
				d, err := parseDir(val)
				if err != nil {
					return nil, err
				}
				if key == "dir" {
					e.Dir = d
				} else {
					e.Port = d
				}
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: probability %q: %v", val, err)
				}
				e.Prob = p
			default:
				v, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: field %s=%q: %v", key, val, err)
				}
				switch key {
				case "link":
					e.Link = int(v)
				case "from":
					e.From = int(v)
				case "tile":
					e.Tile = int(v)
				case "vc":
					e.VC = int(v)
				case "at":
					e.At = v
				case "until":
					e.Until = v
				default:
					return nil, fmt.Errorf("fault: unknown field %q in %q", key, part)
				}
			}
		}
		// Router faults default to a compass port; the zero Dir value
		// (North) is a legal port, so only VCStuck's VC needs a marker.
		if err := e.Validate(); err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	return events, nil
}
