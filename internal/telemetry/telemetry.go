// Package telemetry is the observability layer of the simulator. Every
// router, tile port and link counts its own events (RouterCounts,
// PortCounts, LinkCounts) and saves them in its checkpoint section; a
// Probe reads them in place and adds only what costs extra: the stall
// taxonomy and reservation-slot counts (§2.6), per-VC buffer occupancy
// samples and a cycle-sampled series (§2.3, Fig. 3), a flit lifecycle
// tracer (Chrome trace-event JSON), and dead-link stamps. It renders link
// duty factors (§3.1/§4.4) and CSV / text-table / heatmap exports.
//
// The layer costs nothing when off: every probe-only hook guards on a nil
// probe pointer, no phase is registered, and no allocation happens, so
// the engine's 0 allocs/op steady state (perf_test.go) is preserved.
package telemetry

import "repro/internal/route"

// Config parameterizes a Probe.
type Config struct {
	// SampleEvery is the time-series sampling interval in cycles; 0
	// disables the series (counters and tracing still work).
	SampleEvery int64

	// Trace records per-packet lifecycle events (inject, route,
	// arbitrate, traverse, eject) for the Chrome trace exporter.
	Trace bool

	// MaxTraceEvents caps the tracer's memory; once full, further events
	// are counted as dropped instead of recorded. 0 means the default.
	MaxTraceEvents int
}

// DefaultMaxTraceEvents bounds the tracer when Config.MaxTraceEvents is 0.
const DefaultMaxTraceEvents = 1 << 20

// RouterCounts are a router's crossbar and route-computation counters
// (§2.3), embedded by value in router.Stats: the router counts whether or
// not a probe is attached, and its RouterProbe reads them in place.
type RouterCounts struct {
	Routed      int64 // route-field pops (one per packet per hop)
	SwitchMoves int64 // flits across the switch
	BypassMoves int64 // reserved-VC flits through the §2.6 bypass
	Ejected     int64 // flits delivered through the tile's output port
}

// PortCounts are a tile port's traffic counters, embedded by value in
// network.Port and read in place by the tile's RouterProbe.
type PortCounts struct {
	InjectedFlits    int64 // flits accepted from the tile's injection port
	DeliveredFlits   int64 // flits of fully reassembled packets
	DeliveredPackets int64
	AbortedPackets   int64 // partials discarded on synthetic abort tails
}

// LinkCounts are one channel's traffic counters, embedded by value in
// link.Link and read in place by the channel's LinkProbe.
type LinkCounts struct {
	Flits     int64 `json:"flits"` // flits that entered the wires
	HeadFlits int64 `json:"head_flits"`
	Credits   int64 `json:"credits"` // credits delivered upstream
}

// RouterProbe is one tile's telemetry record: its router's and port's
// counters, read in place, and the counters only a probe pays for, which
// the router increments on its hot paths behind a nil check.
type RouterProbe struct {
	ID int

	*RouterCounts
	*PortCounts

	// Stall taxonomy: why an eligible-looking flit did not move.
	ArbLosses    int64 // switch requests that lost the round-robin grant
	CreditStalls int64 // waiting flits blocked on downstream credits/VCs
	StageStalls  int64 // waiting flits blocked on an occupied staging buffer

	// Reservation-table activity (§2.6).
	ResHits   int64 // reserved slots that carried their flow's flit
	ResMisses int64 // reserved slots that went unclaimed

	// VCOccSum accumulates per-VC input-buffer occupancy at each series
	// sample: VCOccSum[v]/Samples is VC v's mean buffered flits (Fig. 3's
	// buffers under load).
	VCOccSum []int64
	Samples  int64

	stage *TraceStage // the tile's shard's trace stage; nil when not tracing
}

// Trace stages a lifecycle event for this router's tile if tracing is on.
func (rp *RouterProbe) Trace(kind EventKind, now int64, pkt uint64, a, b int32) {
	if rp.stage != nil {
		rp.stage.events = append(rp.stage.events, Event{Cycle: now, Pkt: pkt, Kind: kind, A: a, B: b})
	}
}

// LinkProbe is one unidirectional channel's telemetry record: its place
// on the die, its link's counters read in place, and its dead-link stamp.
type LinkProbe struct {
	Index    int
	From, To int
	Dir      route.Dir
	PX, PY   int // physical die position of the sending tile
	Serdes   int // link cycles per flit, for utilization

	*LinkCounts
	DeadAt int64 // cycle the watchdog declared the channel dead; -1 = alive

	stage *TraceStage // the receiving tile's shard's trace stage, or nil
}

// TraceHead stages a head flit completing its wire traversal; the
// network's delivery phase calls it, since it knows the cycle.
func (lp *LinkProbe) TraceHead(now int64, pkt uint64) {
	if lp.stage != nil {
		lp.stage.events = append(lp.stage.events, Event{Cycle: now, Pkt: pkt, Kind: EvLink, A: int32(lp.Index), B: int32(lp.To)})
	}
}

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

// RegisterRouter creates (or returns) the record for tile id and binds it
// to the tile's router and port counters and, when tracing, to the trace
// stage of the shard that runs the tile; a network rebuilt over the same
// probe (an in-memory resume) registers it again, rebinding it.
func (p *Probe) RegisterRouter(id, numVCs int, rc *RouterCounts, pc *PortCounts, stage *TraceStage) *RouterProbe {
	for len(p.Routers) <= id {
		p.Routers = append(p.Routers, nil)
	}
	rp := p.Routers[id]
	if rp == nil {
		rp = &RouterProbe{ID: id, VCOccSum: make([]int64, numVCs)}
		p.Routers[id] = rp
	}
	rp.RouterCounts, rp.PortCounts = rc, pc
	if p.tracer != nil {
		rp.stage = stage
	}
	return rp
}

// RegisterLink creates (or returns) the record for channel index and
// binds it to the link's counters and the stage of the shard that
// delivers it, as RegisterRouter does.
func (p *Probe) RegisterLink(index, from, to int, dir route.Dir, serdes, px, py int, lc *LinkCounts, stage *TraceStage) *LinkProbe {
	for len(p.Links) <= index {
		p.Links = append(p.Links, nil)
	}
	lp := p.Links[index]
	if lp == nil {
		lp = &LinkProbe{
			Index: index, From: from, To: to, Dir: dir,
			PX: px, PY: py, Serdes: max(serdes, 1), DeadAt: -1,
		}
		p.Links[index] = lp
	}
	lp.LinkCounts = lc
	if p.tracer != nil {
		lp.stage = stage
	}
	return lp
}

// Tracer exposes the lifecycle tracer (nil when tracing is off).
func (p *Probe) Tracer() *Tracer { return p.tracer }

// SampleEvery reports the configured series interval.
func (p *Probe) SampleEvery() int64 { return p.cfg.SampleEvery }

// AddSample appends one series row with the cumulative counter fields
// filled from Totals; the caller supplies the instantaneous occupancy
// fields it alone can see.
func (p *Probe) AddSample(cycle, bufOcc, linkInFlight int64) {
	t := p.Totals()
	p.Series = append(p.Series, SeriesRow{
		Cycle: cycle, BufOcc: bufOcc, LinkInFlight: linkInFlight,
		LinkFlits: t.Flits, SwitchMoves: t.SwitchMoves, ArbLosses: t.ArbLosses,
		CreditStalls: t.CreditStalls, ResHits: t.ResHits, Delivered: t.Ejected,
	})
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

// Totals is the die-wide sum of every counter a probe reads: the
// routers', ports' and links' own, and the probe's.
type Totals struct {
	RouterCounts
	PortCounts
	LinkCounts
	ArbLosses, CreditStalls, StageStalls int64
	ResHits, ResMisses                   int64
}

// Totals sums every registered router and link record in one pass.
func (p *Probe) Totals() Totals {
	var t Totals
	for _, rp := range p.Routers {
		if rp == nil {
			continue
		}
		rc, pc := rp.RouterCounts, rp.PortCounts
		t.Routed += rc.Routed
		t.SwitchMoves += rc.SwitchMoves
		t.BypassMoves += rc.BypassMoves
		t.Ejected += rc.Ejected
		t.InjectedFlits += pc.InjectedFlits
		t.DeliveredFlits += pc.DeliveredFlits
		t.DeliveredPackets += pc.DeliveredPackets
		t.AbortedPackets += pc.AbortedPackets
		t.ArbLosses += rp.ArbLosses
		t.CreditStalls += rp.CreditStalls
		t.StageStalls += rp.StageStalls
		t.ResHits += rp.ResHits
		t.ResMisses += rp.ResMisses
	}
	for _, lp := range p.Links {
		if lp != nil {
			t.Flits += lp.Flits
			t.HeadFlits += lp.HeadFlits
			t.Credits += lp.Credits
		}
	}
	return t
}

// TotalLinkFlits sums the flits sent over every channel.
func (p *Probe) TotalLinkFlits() int64 { return p.Totals().Flits }

// TotalDeliveredFlits sums the flits of fully reassembled packets across
// all tile ports. On a fault-free run it reconciles with the recorder's
// DeliveredFlits (minus loopback packets, which never enter the network).
func (p *Probe) TotalDeliveredFlits() int64 { return p.Totals().DeliveredFlits }
