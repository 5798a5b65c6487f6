// Package telemetry is the observability layer of the simulator: a probe
// fabric threaded through the router phases, link transfer, port
// injection/ejection, and the fault watchdogs. It exposes the quantities
// the paper's claims live on — per-VC buffer occupancy and credit flow
// (§2.3, Fig. 3), link duty factors (§3.1/§4.4), and reservation-slot
// usage (§2.6) — as per-component counters, cycle-sampled time series, a
// flit lifecycle tracer (Chrome trace-event JSON), and CSV / text-table /
// heatmap exporters.
//
// The layer costs nothing when off: every hook site guards on a nil probe
// pointer, no phase is registered, and no allocation happens, so the
// engine's 0 allocs/op steady state (perf_test.go) is preserved.
package telemetry

import "repro/internal/route"

// Config parameterizes a Probe.
type Config struct {
	// SampleEvery is the time-series sampling interval in cycles; 0
	// disables the series (counters and tracing still work).
	SampleEvery int64

	// Trace records per-packet lifecycle events (inject, route,
	// arbitrate, traverse, eject) for the Chrome trace and hop-timeline
	// exporters.
	Trace bool

	// MaxTraceEvents caps the tracer's memory; once full, further events
	// are counted as dropped instead of recorded. 0 means the default.
	MaxTraceEvents int
}

// DefaultMaxTraceEvents bounds the tracer when Config.MaxTraceEvents is 0.
const DefaultMaxTraceEvents = 1 << 20

// RouterProbe accumulates one router's event counters. The owning router
// increments the fields directly on its hot paths (guarded by a nil check),
// so an enabled probe costs one predictable branch plus an integer add.
type RouterProbe struct {
	ID int

	// Crossbar and route-computation activity (§2.3).
	Routed      int64 // route-field pops (one per packet per hop)
	SwitchMoves int64 // flits across the switch
	BypassMoves int64 // reserved-VC flits through the §2.6 bypass

	// Stall taxonomy: why an eligible-looking flit did not move.
	ArbLosses    int64 // switch requests that lost the round-robin grant
	CreditStalls int64 // waiting flits blocked on downstream credits/VCs
	StageStalls  int64 // waiting flits blocked on an occupied staging buffer

	// Reservation-table activity (§2.6).
	ResHits   int64 // reserved slots that carried their flow's flit
	ResMisses int64 // reserved slots that went unclaimed

	// Tile-port traffic.
	InjectedFlits    int64 // flits accepted from the tile's injection port
	EjectedFlits     int64 // flits delivered through the tile's output port
	DeliveredFlits   int64 // flits of fully reassembled packets (port level)
	DeliveredPackets int64
	AbortedPackets   int64 // partials discarded on synthetic abort tails

	// VCOccSum accumulates per-VC input-buffer occupancy at each series
	// sample: VCOccSum[v]/Samples is VC v's mean buffered flits (Fig. 3's
	// buffers under load).
	VCOccSum []int64
	Samples  int64

	tr *Tracer
}

// Trace records a lifecycle event for this router's tile if tracing is on.
func (rp *RouterProbe) Trace(kind EventKind, now int64, pkt uint64, a, b int32) {
	if rp.tr != nil {
		rp.tr.Add(Event{Cycle: now, Pkt: pkt, Kind: kind, A: a, B: b})
	}
}

// Tracing reports whether lifecycle tracing is live, so callers can skip
// preparing event arguments entirely when it is off.
func (rp *RouterProbe) Tracing() bool { return rp.tr != nil }

// LinkProbe accumulates one unidirectional channel's counters.
type LinkProbe struct {
	Index    int
	From, To int
	Dir      route.Dir
	PX, PY   int // physical die position of the sending tile
	Serdes   int // link cycles per flit, for utilization

	Flits     int64 // flits that entered the wires
	HeadFlits int64
	Credits   int64 // credits delivered upstream
	DeadAt    int64 // cycle the watchdog declared the channel dead; -1 = alive

	tr *Tracer
}

// OnSend records a flit entering the wires. The sending link increments
// the counters; the head's lifecycle trace event is added by the network's
// delivery phase (TraceHead), which knows the cycle.
func (lp *LinkProbe) OnSend(head bool) {
	lp.Flits++
	if head {
		lp.HeadFlits++
	}
}

// TraceHead records a head flit completing its wire traversal.
func (lp *LinkProbe) TraceHead(now int64, pkt uint64) {
	if lp.tr != nil {
		lp.tr.Add(Event{Cycle: now, Pkt: pkt, Kind: EvLink, A: int32(lp.Index), B: int32(lp.To)})
	}
}

// OnCredit records one credit completing its reverse traversal.
func (lp *LinkProbe) OnCredit() { lp.Credits++ }

// Util reports the channel's duty factor over the observed horizon: the
// fraction of cycles its wires were busy (§4.4). A duty factor above 1 is
// physically impossible, so it is clamped — but OverUnity still reports
// the condition, because an over-unity raw value means the flit
// accounting double-counted somewhere and should not be masked.
func (lp *LinkProbe) Util(cycles int64) float64 {
	u := lp.rawUtil(cycles)
	if u > 1 {
		u = 1
	}
	return u
}

// SeriesRow is one cycle-sampled snapshot of the network. Counter fields
// are cumulative; consumers difference adjacent rows for rates.
type SeriesRow struct {
	Cycle        int64
	BufOcc       int64 // flits buffered in routers at the sample instant
	LinkInFlight int64 // flits on the wires at the sample instant
	LinkFlits    int64 // cumulative flits sent on all links
	SwitchMoves  int64 // cumulative switch traversals
	ArbLosses    int64 // cumulative lost switch arbitrations
	CreditStalls int64 // cumulative credit-blocked waits
	ResHits      int64 // cumulative claimed reservation slots
	Delivered    int64 // cumulative flits delivered to tiles
}

// Probe is the root of the telemetry fabric for one network: the registry
// of per-component probes, the shared tracer, and the sampled series.
// A nil *Probe is the disabled fast path everywhere.
type Probe struct {
	cfg Config

	Routers []*RouterProbe
	Links   []*LinkProbe

	// Series is the cycle-sampled time series (empty unless SampleEvery
	// was set).
	Series []SeriesRow

	// DeadLinks counts channels the watchdogs declared dead.
	DeadLinks int

	// FaultsApplied counts fault-injector events that took effect.
	FaultsApplied int64

	// Protocol-level robustness counters, published by the end-to-end
	// retry layer (internal/protocol) after a run: retransmissions,
	// retransmit-timeout expiries, and corrupted messages/acks discarded
	// by the end-to-end checksum.
	RetryRetransmits int64
	RetryTimeouts    int64
	RetryCorrupt     int64

	kx, ky int
	now    func() int64
	tracer *Tracer
	sink   EventSink

	// AppendHeatmapGrid scratch, reused across snapshots.
	heatSums   []float64
	heatCounts []int
}

// EventSink receives the probe's discrete fault transitions as they
// happen, in addition to the cumulative counters. Both forwarding points
// run from serial kernel phases (the fault injector and the watchdog), so
// implementations need no locking against simulation state. The flight
// recorder uses this to timestamp fault transitions in its event log.
type EventSink interface {
	// OnFault mirrors Probe.OnFault: an applied fault-injector event.
	OnFault(now int64, kind, where int)
	// OnLinkDead mirrors Probe.OnLinkDead: a watchdog fail-stop.
	OnLinkDead(index int, now int64)
}

// SetEventSink installs (or, with nil, removes) the fault-transition
// forwarding sink.
func (p *Probe) SetEventSink(s EventSink) { p.sink = s }

// New returns an empty probe; the network populates it at construction.
func New(cfg Config) *Probe {
	p := &Probe{cfg: cfg}
	if cfg.Trace {
		max := cfg.MaxTraceEvents
		if max <= 0 {
			max = DefaultMaxTraceEvents
		}
		p.tracer = &Tracer{max: max}
	}
	return p
}

// Config reports the probe's configuration.
func (p *Probe) Config() Config { return p.cfg }

// SetGrid records the die radix for heatmap rendering.
func (p *Probe) SetGrid(kx, ky int) { p.kx, p.ky = kx, ky }

// SetClock installs the simulation clock the probe's horizon reads; the
// network hands it its kernel's Now when it builds.
func (p *Probe) SetClock(now func() int64) { p.now = now }

// Elapsed reports the simulated horizon in cycles, the denominator of
// every rate the exporters print: the installed clock read now, or 0
// without one.
func (p *Probe) Elapsed() int64 {
	if p.now == nil {
		return 0
	}
	return p.now()
}

// RegisterRouter creates (or returns) the probe for router id.
func (p *Probe) RegisterRouter(id, numVCs int) *RouterProbe {
	for len(p.Routers) <= id {
		p.Routers = append(p.Routers, nil)
	}
	if p.Routers[id] == nil {
		p.Routers[id] = &RouterProbe{ID: id, VCOccSum: make([]int64, numVCs), tr: p.tracer}
	}
	return p.Routers[id]
}

// RegisterLink creates the probe for channel index.
func (p *Probe) RegisterLink(index, from, to int, dir route.Dir, serdes, px, py int) *LinkProbe {
	for len(p.Links) <= index {
		p.Links = append(p.Links, nil)
	}
	if serdes < 1 {
		serdes = 1
	}
	if p.Links[index] == nil {
		p.Links[index] = &LinkProbe{
			Index: index, From: from, To: to, Dir: dir,
			PX: px, PY: py, Serdes: serdes, DeadAt: -1, tr: p.tracer,
		}
	}
	return p.Links[index]
}

// Tracer exposes the lifecycle tracer (nil when tracing is off).
func (p *Probe) Tracer() *Tracer { return p.tracer }

// SampleEvery reports the configured series interval.
func (p *Probe) SampleEvery() int64 { return p.cfg.SampleEvery }

// AddSample appends one series row with the cumulative counter fields
// filled from the registered probes; the caller supplies the instantaneous
// occupancy fields it alone can see.
func (p *Probe) AddSample(cycle, bufOcc, linkInFlight int64) {
	row := SeriesRow{Cycle: cycle, BufOcc: bufOcc, LinkInFlight: linkInFlight}
	for _, rp := range p.Routers {
		if rp == nil {
			continue
		}
		row.SwitchMoves += rp.SwitchMoves
		row.ArbLosses += rp.ArbLosses
		row.CreditStalls += rp.CreditStalls
		row.ResHits += rp.ResHits
		row.Delivered += rp.EjectedFlits
	}
	for _, lp := range p.Links {
		if lp != nil {
			row.LinkFlits += lp.Flits
		}
	}
	p.Series = append(p.Series, row)
}

// OnLinkDead records a watchdog fail-stop declaration for channel index.
func (p *Probe) OnLinkDead(index int, now int64) {
	p.DeadLinks++
	if index >= 0 && index < len(p.Links) && p.Links[index] != nil {
		p.Links[index].DeadAt = now
	}
	if p.tracer != nil {
		p.tracer.Add(Event{Cycle: now, Kind: EvLinkDead, A: int32(index)})
	}
	if p.sink != nil {
		p.sink.OnLinkDead(index, now)
	}
}

// OnFault records an applied fault-injector event (kind is the injector's
// own enumeration, recorded opaquely).
func (p *Probe) OnFault(now int64, kind int, where int) {
	p.FaultsApplied++
	if p.tracer != nil {
		p.tracer.Add(Event{Cycle: now, Kind: EvFault, A: int32(kind), B: int32(where)})
	}
	if p.sink != nil {
		p.sink.OnFault(now, kind, where)
	}
}

// TotalLinkFlits sums the flits sent over every channel.
func (p *Probe) TotalLinkFlits() int64 {
	var n int64
	for _, lp := range p.Links {
		if lp != nil {
			n += lp.Flits
		}
	}
	return n
}

// TotalDeliveredFlits sums the flits of fully reassembled packets across
// all tile ports. On a fault-free run it reconciles with the recorder's
// DeliveredFlits (minus loopback packets, which never enter the network).
func (p *Probe) TotalDeliveredFlits() int64 {
	var n int64
	for _, rp := range p.Routers {
		if rp != nil {
			n += rp.DeliveredFlits
		}
	}
	return n
}

// TotalEjectedFlits sums the flits delivered through tile output ports
// (including abort tails, which carry no payload).
func (p *Probe) TotalEjectedFlits() int64 {
	var n int64
	for _, rp := range p.Routers {
		if rp != nil {
			n += rp.EjectedFlits
		}
	}
	return n
}
