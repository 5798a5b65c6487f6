package fault

import (
	"sort"

	"repro/internal/route"
)

// LinkID addresses one unidirectional channel by its source tile and the
// direction of travel, matching topology.Link.
type LinkID struct {
	From int
	Dir  route.Dir
}

// Map is the live fault map published by online detection: the set of
// channels the watchdogs have declared dead, with the cycle each was
// declared. Detection is fail-stop — a channel, once declared dead, stays
// in the map (the hardware analogue fences the lane off permanently), so
// the route oracle can rely on the map only ever growing.
type Map struct {
	down    map[LinkID]int64
	version int64
}

// NewMap returns an empty fault map.
func NewMap() *Map {
	return &Map{down: make(map[LinkID]int64)}
}

// MarkDown declares the channel dead at cycle now. It reports whether the
// channel was newly declared (false if already in the map).
func (m *Map) MarkDown(from int, d route.Dir, now int64) bool {
	id := LinkID{From: from, Dir: d}
	if _, ok := m.down[id]; ok {
		return false
	}
	m.down[id] = now
	m.version++
	return true
}

// IsDown reports whether the channel leaving tile from in direction d has
// been declared dead. Its signature matches the blocked predicate of
// topology.ShortestAvoiding.
func (m *Map) IsDown(from int, d route.Dir) bool {
	_, ok := m.down[LinkID{From: from, Dir: d}]
	return ok
}

// Empty reports whether no channel has been declared dead.
func (m *Map) Empty() bool { return len(m.down) == 0 }

// Len reports the number of dead channels.
func (m *Map) Len() int { return len(m.down) }

// Version increments on every new declaration, so clients can cheaply
// detect map changes.
func (m *Map) Version() int64 { return m.version }

// Detection is one watchdog declaration.
type Detection struct {
	LinkID
	DetectedAt int64
}

// Detections lists every declaration, sorted by source tile then direction
// for deterministic reporting.
func (m *Map) Detections() []Detection {
	out := make([]Detection, 0, len(m.down))
	for id, at := range m.down {
		out = append(out, Detection{LinkID: id, DetectedAt: at})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].Dir < out[j].Dir
	})
	return out
}
