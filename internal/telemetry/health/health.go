// Package health runs online anomaly detectors over cycle-sampled
// observations of a running network. It is the judgment layer of the
// observability stack: the health sampler (internal/telemetry/sampler)
// hands it one Sample per window and it maintains three detectors, each
// with root-cause attribution:
//
//   - deadlock/livelock: no flit has been ejected for a full window while
//     buffer occupancy is non-zero. The waiting-VC graph (each routed VC
//     waits on exactly one downstream VC) is chased to name either the
//     cycle of waiting VCs or the wedged/stalled VC the chains end at —
//     the §2.3 credit loop closed on itself.
//   - per-VC starvation: a head-of-line flit has aged past the watermark
//     while the rest of the network still makes progress; names the
//     router, input port, and VC (the Fig. 3 buffer that stopped moving).
//   - congestion collapse: delivered throughput falls across consecutive
//     sampled windows while offered load rises — the post-saturation
//     regime the §4.3 load-latency curves warn about; names the hottest
//     channels of the last window.
//
// The package is pure data-in, verdicts-out: it holds no reference to the
// simulator, so it is trivially unit-testable and imposes no ordering
// constraints on the caller beyond monotonically increasing sample
// cycles. A monitor's state rides in checkpoints (SaveState), so a
// resumed run's detectors carry on from the straight run's.
package health

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/route"
)

// Config holds the detector thresholds; zero values select defaults.
type Config struct {
	// DeadlockWindow is how many cycles ejections must be absent (with
	// flits buffered) before the deadlock detector fires.
	DeadlockWindow int64

	// StarveAge is the head-of-line age watermark, in cycles, past which
	// a waiting VC counts as starved.
	StarveAge int64

	// CollapseWindows is how many consecutive falling windows the
	// congestion detector requires before firing.
	CollapseWindows int

	// CollapseTolerance is the fractional delivered-rate drop that counts
	// as a falling window (0.1 = 10%).
	CollapseTolerance float64
}

// Defaults for Config's zero values.
const (
	DefaultDeadlockWindow  = 1024
	DefaultStarveAge       = 512
	DefaultCollapseWindows = 2
)

// DefaultCollapseTolerance is the default fractional delivered drop.
const DefaultCollapseTolerance = 0.1

func (c Config) withDefaults() Config {
	if c.DeadlockWindow <= 0 {
		c.DeadlockWindow = DefaultDeadlockWindow
	}
	if c.StarveAge <= 0 {
		c.StarveAge = DefaultStarveAge
	}
	if c.CollapseWindows <= 0 {
		c.CollapseWindows = DefaultCollapseWindows
	}
	if c.CollapseTolerance <= 0 {
		c.CollapseTolerance = DefaultCollapseTolerance
	}
	return c
}

// VCWait describes one waiting virtual channel at observation time: a VC
// with buffered flits that has not moved one for Age cycles. Routed
// entries wait on the downstream VC (DownTile, OutPort.Opposite(),
// OutVC); Stuck/Stalled entries are wedged by a fault and wait on
// nothing — they are the chains' roots.
type VCWait struct {
	Tile int       `json:"tile"`
	Port route.Dir `json:"port"`
	VC   int       `json:"vc"`
	Age  int64     `json:"age"`

	Routed  bool      `json:"routed"`
	OutPort route.Dir `json:"out_port"`
	OutVC   int       `json:"out_vc"`
	// DownTile is the tile at the far end of OutPort (-1 for the local
	// port or unrouted VCs).
	DownTile int `json:"down_tile"`

	Stuck   bool `json:"stuck,omitempty"`   // this VC is wedged by a fault
	Stalled bool `json:"stalled,omitempty"` // the whole input port is stalled
}

func (w VCWait) key() vcKey { return vcKey{w.Tile, int(w.Port), w.VC} }

func (w VCWait) label() string {
	return fmt.Sprintf("t%d:%v.vc%d", w.Tile, w.Port, w.VC)
}

type vcKey struct{ tile, port, vc int }

// LinkLoad is one channel's traffic during the last sampled window, for
// hottest-link attribution.
type LinkLoad struct {
	Index int    `json:"index"`
	From  int    `json:"from"`
	To    int    `json:"to"`
	Dir   string `json:"dir"`
	Flits int64  `json:"flits"` // flits sent during the window
}

// Sample is one cycle-boundary observation of the network. Counter
// fields are cumulative since construction; the monitor differences
// adjacent samples itself.
type Sample struct {
	Cycle int64

	// GeneratedPackets is the offered load: packets the clients created
	// (whether or not the network accepted them yet).
	GeneratedPackets int64

	// EjectedFlits is the delivered throughput signal: flits handed out
	// of tile output ports.
	EjectedFlits int64

	// BufOcc is the instantaneous number of flits buffered in routers.
	BufOcc int64

	// Waiting lists the VCs whose head-of-line flit has not moved for at
	// least the starvation watermark (plus any fault-wedged VCs),
	// deterministic order (tile, then port, then VC).
	Waiting []VCWait

	// HotLinks are the busiest channels of the window just ended, hottest
	// first (ties by index), as precomputed by the sampler. The slice is
	// borrowed: Observe may read it during the call but copies anything it
	// keeps, so callers can reuse the buffer across samples.
	HotLinks []LinkLoad

	// DeadLinks is the number of channels the watchdogs declared dead —
	// context for deadlock attribution.
	DeadLinks int
}

// Detector names, in the fixed order Verdicts reports them.
const (
	DetectorDeadlock   = "deadlock"
	DetectorStarvation = "starvation"
	DetectorCongestion = "congestion"
)

// Verdict is one detector's current judgment.
type Verdict struct {
	Detector string `json:"detector"`
	Healthy  bool   `json:"healthy"`
	// Since is the cycle the current condition was first observed
	// (0 while healthy and never previously tripped).
	Since  int64  `json:"since,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Event is one health transition (healthy <-> unhealthy), for the SSE
// stream.
type Event struct {
	Cycle    int64  `json:"cycle"`
	Detector string `json:"detector"`
	Healthy  bool   `json:"healthy"`
	Detail   string `json:"detail,omitempty"`
}

// Monitor holds the detectors' state between observations.
type Monitor struct {
	cfg Config

	seen bool
	prev Sample

	// Deadlock state.
	dlStuckSince int64 // first cycle of the current no-ejection stretch; -1 = progressing
	dlUnhealthy  bool
	dlSince      int64
	dlDetail     string

	// Starvation state.
	stUnhealthy bool
	stSince     int64
	stDetail    string

	// Congestion state: window rates and the falling-window streak.
	haveRates    bool
	offeredRate  float64
	deliverRate  float64
	falls        int
	cgUnhealthy  bool
	cgSince      int64
	cgDetail     string
	fallStartCyc int64
	fallStartHot []LinkLoad
}

// MinWaitAge is the head-of-line age past which a VC counts as waiting in
// a Sample: old enough for both the starvation and deadlock thresholds of
// cfg (zero fields default), scaled down so attribution has material
// before the detectors fire.
func MinWaitAge(cfg Config) int64 {
	cfg = cfg.withDefaults()
	age := min(cfg.StarveAge, cfg.DeadlockWindow)
	if age > 4 {
		age /= 2
	}
	return age
}

// New returns a monitor with the given thresholds (zero fields default).
func New(cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults(), dlStuckSince: -1}
}

// Config reports the monitor's effective (defaulted) configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Observe folds one sample into the detectors and returns the health
// transitions it caused (empty on steady state). Samples must arrive in
// increasing cycle order.
func (m *Monitor) Observe(s Sample) []Event {
	var events []Event
	if !m.seen {
		m.seen = true
		m.prev = s
		return nil
	}
	prev := m.prev
	m.prev = s
	ejected := s.EjectedFlits - prev.EjectedFlits
	offered := s.GeneratedPackets - prev.GeneratedPackets
	span := s.Cycle - prev.Cycle
	if span <= 0 {
		return nil
	}

	events = m.observeDeadlock(s, ejected, events)
	events = m.observeStarvation(s, ejected, events)
	events = m.observeCongestion(s, offered, ejected, span, events)
	return events
}

func (m *Monitor) observeDeadlock(s Sample, ejected int64, events []Event) []Event {
	progressing := ejected > 0 || s.BufOcc == 0
	if progressing {
		m.dlStuckSince = -1
		if m.dlUnhealthy {
			m.dlUnhealthy = false
			m.dlDetail = ""
			events = append(events, Event{Cycle: s.Cycle, Detector: DetectorDeadlock, Healthy: true})
		}
		return events
	}
	if m.dlStuckSince < 0 {
		m.dlStuckSince = s.Cycle
	}
	if s.Cycle-m.dlStuckSince >= m.cfg.DeadlockWindow && !m.dlUnhealthy {
		m.dlUnhealthy = true
		m.dlSince = m.dlStuckSince
		m.dlDetail = deadlockDetail(s)
		events = append(events, Event{Cycle: s.Cycle, Detector: DetectorDeadlock, Healthy: false, Detail: m.dlDetail})
	}
	return events
}

// deadlockDetail attributes a no-progress condition: wedged (stuck or
// stalled) VCs are the fail-stop root causes; otherwise the waiting-VC
// graph is chased for a cycle (each routed VC waits on exactly one
// downstream VC, so the graph is functional and a plain walk finds any
// cycle); failing both, the deepest chain is named.
func deadlockDetail(s Sample) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d flits buffered, no ejections", s.BufOcc)
	if s.DeadLinks > 0 {
		fmt.Fprintf(&sb, "; %d dead link(s) in the fault map", s.DeadLinks)
	}
	var wedged []VCWait
	for _, w := range s.Waiting {
		if w.Stuck || w.Stalled {
			wedged = append(wedged, w)
		}
	}
	if len(wedged) > 0 {
		sb.WriteString("; wedged VCs: ")
		for i, w := range wedged {
			if i == 4 {
				fmt.Fprintf(&sb, " (+%d more)", len(wedged)-i)
				break
			}
			if i > 0 {
				sb.WriteString(", ")
			}
			kind := "stuck"
			if w.Stalled {
				kind = "stalled port"
			}
			fmt.Fprintf(&sb, "%s (%s, age %d)", w.label(), kind, w.Age)
		}
		return sb.String()
	}
	if cyc := waitCycle(s.Waiting); len(cyc) > 0 {
		sb.WriteString("; cycle of waiting VCs: ")
		for _, w := range cyc {
			sb.WriteString(w.label())
			sb.WriteString(" -> ")
		}
		sb.WriteString(cyc[0].label())
		return sb.String()
	}
	if len(s.Waiting) > 0 {
		// No cycle found (e.g. chains blocked outside the waiting set);
		// name the oldest waiter.
		oldest := s.Waiting[0]
		for _, w := range s.Waiting[1:] {
			if w.Age > oldest.Age {
				oldest = w
			}
		}
		fmt.Fprintf(&sb, "; oldest waiting VC %s (age %d, wants %v)", oldest.label(), oldest.Age, oldest.OutPort)
	}
	return sb.String()
}

// DeadlockDetail attributes a no-progress condition from a single sample,
// exactly as the live deadlock detector does when it fires. The post-mortem
// tool (cmd/nocpost) recomputes attributions from dumped samples through
// this entry point, so its verdicts are string-identical to the live ones.
func DeadlockDetail(s Sample) string { return deadlockDetail(s) }

// WaitCycle finds a cycle in the waiting-VC graph of a sample, the core of
// deadlock attribution, exposed for post-mortem analysis.
func WaitCycle(waiting []VCWait) []VCWait { return waitCycle(waiting) }

// Label renders a VCWait's canonical "t<tile>:<port>.vc<n>" name, the form
// detector attributions use.
func (w VCWait) Label() string { return w.label() }

// waitCycle finds a cycle in the waiting-VC graph. Each routed waiter has
// at most one successor — the downstream VC it needs a credit from — so
// the graph is functional and a colored walk finds a cycle in O(n).
func waitCycle(waiting []VCWait) []VCWait {
	idx := make(map[vcKey]int, len(waiting))
	for i, w := range waiting {
		idx[w.key()] = i
	}
	next := func(w VCWait) (int, bool) {
		if !w.Routed || w.OutVC < 0 || w.DownTile < 0 {
			return 0, false
		}
		j, ok := idx[vcKey{w.DownTile, int(w.OutPort.Opposite()), w.OutVC}]
		return j, ok
	}
	const (
		white = 0 // unvisited
		gray  = 1 // on the current walk
		black = 2 // finished, known cycle-free from here
	)
	color := make([]int, len(waiting))
	for start := range waiting {
		if color[start] != white {
			continue
		}
		var path []int
		i := start
		for {
			color[i] = gray
			path = append(path, i)
			j, ok := next(waiting[i])
			if !ok || color[j] == black {
				break
			}
			if color[j] == gray {
				// Found: the cycle is the path suffix starting at j.
				var cyc []VCWait
				for k := len(path) - 1; k >= 0; k-- {
					cyc = append(cyc, waiting[path[k]])
					if path[k] == j {
						break
					}
				}
				// Reverse into walk order.
				for a, b := 0, len(cyc)-1; a < b; a, b = a+1, b-1 {
					cyc[a], cyc[b] = cyc[b], cyc[a]
				}
				return cyc
			}
			i = j
		}
		for _, k := range path {
			color[k] = black
		}
	}
	return nil
}

func (m *Monitor) observeStarvation(s Sample, ejected int64, events []Event) []Event {
	// While ejections are absent entirely the condition is the deadlock
	// detector's to call; starvation is "stuck while others progress".
	if ejected == 0 && s.BufOcc > 0 {
		return events
	}
	var starved []VCWait
	for _, w := range s.Waiting {
		if w.Age >= m.cfg.StarveAge {
			starved = append(starved, w)
		}
	}
	if len(starved) == 0 {
		if m.stUnhealthy {
			m.stUnhealthy = false
			m.stDetail = ""
			events = append(events, Event{Cycle: s.Cycle, Detector: DetectorStarvation, Healthy: true})
		}
		return events
	}
	sort.Slice(starved, func(i, j int) bool {
		if starved[i].Age != starved[j].Age {
			return starved[i].Age > starved[j].Age
		}
		a, b := starved[i], starved[j]
		if a.Tile != b.Tile {
			return a.Tile < b.Tile
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.VC < b.VC
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d VC(s) past the %d-cycle head-of-line watermark: ", len(starved), m.cfg.StarveAge)
	for i, w := range starved {
		if i == 3 {
			fmt.Fprintf(&sb, " (+%d more)", len(starved)-i)
			break
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s age %d", w.label(), w.Age)
	}
	detail := sb.String()
	if !m.stUnhealthy {
		m.stUnhealthy = true
		m.stSince = s.Cycle
		events = append(events, Event{Cycle: s.Cycle, Detector: DetectorStarvation, Healthy: false, Detail: detail})
	}
	m.stDetail = detail
	return events
}

func (m *Monitor) observeCongestion(s Sample, offered, ejected, span int64, events []Event) []Event {
	offRate := float64(offered) / float64(span)
	delRate := float64(ejected) / float64(span)
	if m.haveRates {
		// "Rising" tolerates a few percent of Bernoulli noise in the
		// offered rate; collapse is about delivery falling while sources
		// keep offering, not about offered load being strictly monotone.
		rising := offRate >= m.offeredRate*0.95
		falling := m.deliverRate > 0 && delRate < m.deliverRate*(1-m.cfg.CollapseTolerance)
		// A delivered rate flat at zero mid-streak is the deepest form of
		// collapse, not a recovery; hold the streak until delivery resumes.
		held := m.falls > 0 && m.deliverRate == 0 && delRate == 0
		if rising && (falling || held) {
			if m.falls == 0 {
				m.fallStartCyc = s.Cycle
				// Copy: the caller owns (and reuses) the HotLinks buffer.
				m.fallStartHot = append(m.fallStartHot[:0], s.HotLinks...)
			}
			m.falls++
		} else {
			m.falls = 0
		}
	}
	m.haveRates = true
	m.offeredRate, m.deliverRate = offRate, delRate

	if m.falls >= m.cfg.CollapseWindows {
		if !m.cgUnhealthy {
			m.cgUnhealthy = true
			m.cgSince = m.fallStartCyc
			var sb strings.Builder
			fmt.Fprintf(&sb, "delivered rate fell %d window(s) running while offered load rose (now %.3f flits/cycle delivered vs %.3f pkts/cycle offered)",
				m.falls, delRate, offRate)
			// If the network froze so hard this window that no link moved,
			// attribute the hot links from the window the streak began.
			hot := s.HotLinks
			if len(hot) == 0 {
				hot = m.fallStartHot
			}
			if len(hot) > 0 {
				sb.WriteString("; hottest links: ")
				for i, l := range hot {
					if i == 3 {
						break
					}
					if i > 0 {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "L%d %d-%s (%d flits)", l.Index, l.From, l.Dir, l.Flits)
				}
			}
			m.cgDetail = sb.String()
			events = append(events, Event{Cycle: s.Cycle, Detector: DetectorCongestion, Healthy: false, Detail: m.cgDetail})
		}
	} else if m.cgUnhealthy && m.falls == 0 {
		m.cgUnhealthy = false
		m.cgDetail = ""
		events = append(events, Event{Cycle: s.Cycle, Detector: DetectorCongestion, Healthy: true})
	}
	return events
}

// Verdicts reports every detector's current judgment, in a fixed order.
func (m *Monitor) Verdicts() []Verdict { return m.AppendVerdicts(nil) }

// AppendVerdicts appends every detector's current judgment to dst, in a
// fixed order, without allocating when dst has capacity.
func (m *Monitor) AppendVerdicts(dst []Verdict) []Verdict {
	return append(dst,
		Verdict{Detector: DetectorDeadlock, Healthy: !m.dlUnhealthy, Since: m.dlSince, Detail: m.dlDetail},
		Verdict{Detector: DetectorStarvation, Healthy: !m.stUnhealthy, Since: m.stSince, Detail: m.stDetail},
		Verdict{Detector: DetectorCongestion, Healthy: !m.cgUnhealthy, Since: m.cgSince, Detail: m.cgDetail})
}

// Healthy reports whether every detector is currently healthy.
func (m *Monitor) Healthy() bool {
	return !m.dlUnhealthy && !m.stUnhealthy && !m.cgUnhealthy
}

// SaveState serialises the detectors' state: the previous sample's
// cycle and counters (what Observe differences the next sample against),
// each detector's condition, since-cycle and attribution, and the
// congestion detector's window rates and falling streak.
func (m *Monitor) SaveState(e *checkpoint.Encoder) {
	e.Bool(m.seen)
	e.I64(m.prev.Cycle)
	e.I64(m.prev.GeneratedPackets)
	e.I64(m.prev.EjectedFlits)
	e.I64(m.dlStuckSince)
	e.Bool(m.dlUnhealthy)
	e.I64(m.dlSince)
	e.String(m.dlDetail)
	e.Bool(m.stUnhealthy)
	e.I64(m.stSince)
	e.String(m.stDetail)
	e.Bool(m.haveRates)
	e.F64(m.offeredRate)
	e.F64(m.deliverRate)
	e.Int(m.falls)
	e.Bool(m.cgUnhealthy)
	e.I64(m.cgSince)
	e.String(m.cgDetail)
	e.I64(m.fallStartCyc)
	e.U32(uint32(len(m.fallStartHot)))
	for _, l := range m.fallStartHot {
		e.Int(l.Index)
		e.Int(l.From)
		e.Int(l.To)
		e.String(l.Dir)
		e.I64(l.Flits)
	}
}

// RestoreState restores detector state saved with SaveState into a
// monitor with the same thresholds.
func (m *Monitor) RestoreState(d *checkpoint.Decoder) {
	m.seen = d.Bool()
	m.prev = Sample{Cycle: d.I64(), GeneratedPackets: d.I64(), EjectedFlits: d.I64()}
	m.dlStuckSince = d.I64()
	m.dlUnhealthy = d.Bool()
	m.dlSince = d.I64()
	m.dlDetail = d.String()
	m.stUnhealthy = d.Bool()
	m.stSince = d.I64()
	m.stDetail = d.String()
	m.haveRates = d.Bool()
	m.offeredRate = d.F64()
	m.deliverRate = d.F64()
	m.falls = d.Int()
	m.cgUnhealthy = d.Bool()
	m.cgSince = d.I64()
	m.cgDetail = d.String()
	m.fallStartCyc = d.I64()
	n := d.Count(36)
	m.fallStartHot = m.fallStartHot[:0]
	for i := 0; i < n; i++ {
		m.fallStartHot = append(m.fallStartHot, LinkLoad{
			Index: d.Int(), From: d.Int(), To: d.Int(), Dir: d.String(), Flits: d.I64(),
		})
	}
}
