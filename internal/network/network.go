package network

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Config assembles a network.
type Config struct {
	Topo   topology.Topology
	Router router.Config // template; ID is overridden per tile

	SerdesCycles int // link cycles per flit (default 1; >1 models narrow links, §3.3)

	// Physical-layer options (§2.5). PhysWires enables bit-level wire
	// modelling with the given spare count; TransientProb and ECC apply
	// per link.
	PhysWires     bool
	SpareWires    int
	TransientProb float64
	ECC           bool

	// ElasticLinks replaces credit flow control with the §3.3/ref-[4]
	// elastic channels (buffering in the repeaters, locally closed flow
	// control). Mesh only: an elastic channel serializes its VCs, which
	// would reintroduce deadlock on torus rings.
	ElasticLinks bool

	// Adaptive replaces dimension-ordered source routing with west-first
	// turn-model adaptive routing: each hop picks the least-congested
	// productive output. Mesh only (the turn model's deadlock-freedom
	// argument does not cover wraparound channels).
	Adaptive bool

	// Watchdog, when positive, arms per-link credit-starvation watchdogs:
	// a link whose sending router has had flits wanting the link for
	// Watchdog consecutive cycles without a single credit returning is
	// declared dead (fail-stop) and published in the live fault map, and
	// traffic is rerouted around it. Requires the credit-based VC router
	// (no deflection, elastic links, or adaptive routing).
	Watchdog int

	Warmup int64
	Seed   int64

	// Probe, when non-nil, attaches the telemetry layer: records that
	// read the routers', ports' and links' own counters (New binds them,
	// also for a probe carried over from an earlier network), the stall
	// taxonomy, optional cycle-sampled series, and optional per-packet
	// lifecycle tracing. Nil keeps every hook on its zero-cost path and
	// registers no extra phase.
	Probe *telemetry.Probe

	// RouteTable is the fault-free source-route table for this topology
	// (route.BuildTable), shared read-only across every network built
	// over the same geometry — sweep points, parallel ForEach workers,
	// warm-fork replicas. Nil makes New build one. Every fault-free route
	// is served from it, with route.Compute only for its misses. The
	// table must have been built for exactly Topo's geometry; a
	// mismatched table mis-routes silently.
	RouteTable *route.Table

	// Adjacency, when non-nil, is topology.Links(Topo) precomputed and
	// shared read-only across networks, so repeated construction over one
	// topology walks the neighbor relation once. It must be exactly that
	// call's result for Topo; construction trusts it.
	Adjacency []topology.Link

	// Shards is the intra-cycle parallelism: tiles and links are
	// partitioned into this many contiguous shards and each kernel phase
	// runs concurrently across them, with byte-identical results to the
	// sequential loop (see shard.go). 1 or less (the zero value included)
	// is the classic sequential loop. Configurations whose
	// Capabilities.Sharding is set run one shard.
	Shards int
}

// CheckPacketFlits reports an error when the configured flow control
// cannot carry a packet of nf flits: drop and deflection routing carry
// single-flit packets only, and cut-through needs a whole packet to fit
// one VC buffer.
func (cfg *Config) CheckPacketFlits(nf int) error {
	rc := &cfg.Router
	if nf > 1 && rc.Mode != router.ModeVC {
		return fmt.Errorf("network: multi-flit packet in single-flit flow-control mode")
	}
	if rc.CutThrough && nf > rc.BufFlits {
		return fmt.Errorf("network: %d-flit packet exceeds the %d-flit buffers cut-through requires", nf, rc.BufFlits)
	}
	return nil
}

// maxBufferSlots caps the flit slots in a network's VC buffers, so a
// hostile depth fails New instead of exhausting memory. The largest die a
// spec may name (128² tiles × 5 ports × 8 VCs × 5 slots) needs 3.3M.
const maxBufferSlots = 1 << 24

// linkEntry couples a link to its position in the topology.
type linkEntry struct {
	l    *link.Link
	from int
	to   int
	dir  route.Dir
}

// Network is a complete on-chip interconnection network plus the client
// logic attached to its tiles.
type Network struct {
	cfg    Config
	topo   topology.Topology
	kernel *sim.Kernel
	// routers, linkEntry.l and ports point into one slab each (router.NewAll,
	// link.NewAll, one []Port), built by New. They stay pointer slices so
	// r := n.routers[t] names the router instead of copying it.
	routers []*router.Router
	links   []linkEntry
	ports   []*Port
	clients []Client

	recorder *Recorder
	nextID   uint64

	// caps is CapabilitiesOf(cfg), derived once by New.
	caps Capabilities

	// shards partitions the tiles and links for intra-cycle parallelism
	// (shard.go); one entry (the whole network) on the sequential path.
	// Each shard owns the flit pool its components recycle through.
	// shardOf maps tile -> owning shard; onList backs the per-shard
	// active-router worklists.
	shards  []*shardState
	shardOf []int
	onList  []bool

	// Link worklist state (shard.go): linkOn dedupes link worklist
	// membership; outLinkIdx / inLinkIdx map tile×port to the link a send
	// or credit wakes.
	linkOn     []bool
	outLinkIdx []int32
	inLinkIdx  []int32

	// clientTiles lists tiles with attached clients, ascending, so the
	// serial client phase walks attached clients in tile order without
	// scanning every tile.
	clientTiles []int

	// probe is the telemetry root (nil when disabled); traceLinks caches
	// whether lifecycle tracing is live so the deliver loop pays one
	// boolean test, not a probe-and-tracer chase, per flit.
	probe      *telemetry.Probe
	traceLinks bool

	// routeTable serves every route while the fault map is empty (routes
	// are then a pure function of the topology). routeHits / routeMisses
	// count lookups it served versus route.Compute runs. They are
	// operational metrics, not simulation state: they count from the
	// network's build, are excluded from checkpoints, and never feed
	// deterministic outputs.
	routeTable  *route.Table
	routeHits   int64
	routeMisses int64

	// Online fault detection and fault-aware rerouting state (faults.go).
	faultMap   *fault.Map
	wdStarve   []int64 // consecutive starved cycles per link
	wdCredit   []bool  // credit arrived on link i this cycle
	rerouted   int64   // route computations diverted around the fault map
	unroutable int64   // sends refused because the fault map cut the network

	// Checkpoint state (checkpoint.go): registered extra state, the
	// callbacks a restore runs last, the cycle of the most recent snapshot
	// (-1 = none), and the configured snapshot interval (0 =
	// checkpointing off), for observability.
	extras        []checkpointExtra
	onRestore     []func()
	lastCkptCycle int64
	ckptEvery     int64

	// pktObs, when non-nil, receives every delivered non-loopback packet
	// at the eject barrier, in tile (= sequential-schedule) order for any
	// shard count (ejectMerge sorts). It is a per-run attachment like the
	// checkpoint extras.
	// obsScratch is the reused observation record so the hook stays
	// allocation-free.
	pktObs     PacketObserver
	obsScratch PacketObservation
}

// PacketObservation describes one delivered packet for an attached
// PacketObserver: identity, endpoints, the source route's hop count
// (stamped at send time — H in the §3 latency model), and the lifecycle
// timestamps measurement needs. Loopback (src == dst) packets never reach
// the network and are not observed, matching the recorder's latency
// histograms.
type PacketObservation struct {
	ID          uint64
	Src, Dst    int
	Class, Flow int
	Hops        int
	Flits       int
	Birth       int64 // cycle the client created the packet
	Inject      int64 // cycle the head entered the network
	Arrived     int64 // cycle the tail was ejected
}

// PacketObserver receives delivered packets behind the eject barrier, on
// the serial merge goroutine, in deterministic order for any shard count.
type PacketObserver interface {
	PacketDelivered(ob *PacketObservation)
}

// SetPacketObserver installs (or, with nil, removes) the delivered-packet
// observer. The observation record passed to the observer is reused
// across calls; observers must copy what they keep.
func (n *Network) SetPacketObserver(o PacketObserver) { n.pktObs = o }

// New builds the network described by cfg.
func New(cfg Config) (*Network, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("network: nil topology")
	}
	if cfg.SerdesCycles < 1 {
		cfg.SerdesCycles = 1
	}
	deflect := cfg.Router.Mode == router.ModeDeflect
	if deflect && cfg.SerdesCycles != 1 {
		return nil, fmt.Errorf("network: deflection routing requires full-width links (serdes=1)")
	}
	if cfg.ElasticLinks {
		if cfg.Topo.Wrap() {
			return nil, fmt.Errorf("network: elastic links serialize VCs and would deadlock torus rings; use a mesh")
		}
		cfg.Router.ElasticLinks = true
	}
	if cfg.Adaptive {
		if cfg.Topo.Wrap() {
			return nil, fmt.Errorf("network: west-first adaptive routing is deadlock-free on meshes only")
		}
		cfg.Router.Adaptive = true
	}
	if cfg.Watchdog < 0 {
		return nil, fmt.Errorf("network: negative watchdog threshold %d", cfg.Watchdog)
	}
	if cfg.Watchdog > 0 {
		if cfg.ElasticLinks || cfg.Adaptive || cfg.Router.Mode != router.ModeVC {
			return nil, fmt.Errorf("network: credit watchdogs require the credit-based VC router (no deflect/elastic/adaptive/drop)")
		}
	}
	// Each of the tiles × ports × NumVCs VCs holds BufFlits+1 slots; counts
	// below 1 are router.New's to reject.
	if vcs := cfg.Topo.NumTiles() * router.NumPorts * cfg.Router.NumVCs; vcs > 0 && cfg.Router.BufFlits >= maxBufferSlots/vcs {
		return nil, fmt.Errorf("network: %d virtual channels × (BufFlits %d + 1) exceed the %d buffer-slot cap",
			vcs, cfg.Router.BufFlits, maxBufferSlots)
	}
	n := &Network{
		cfg:           cfg,
		topo:          cfg.Topo,
		kernel:        sim.NewKernel(cfg.Seed),
		recorder:      NewRecorder(cfg.Warmup),
		faultMap:      fault.NewMap(),
		caps:          CapabilitiesOf(cfg),
		probe:         cfg.Probe,
		lastCkptCycle: -1,
	}
	if cfg.Probe != nil {
		n.traceLinks = cfg.Probe.Tracer() != nil
		kx, ky := cfg.Topo.Radix()
		cfg.Probe.SetGrid(kx, ky)
		cfg.Probe.SetClock(n.kernel.Now)
	}
	tiles := cfg.Topo.NumTiles()
	n.clients = make([]Client, tiles)
	n.routeTable = cfg.RouteTable
	if n.routeTable == nil {
		n.routeTable = route.BuildTable(cfg.Topo, tiles)
	}
	// Tori deadlock under dimension-ordered routing without dateline VC
	// classes; enable them whenever wraparound channels exist. (Dropping
	// and deflection flow control never block, so they need no classes.)
	if cfg.Topo.Wrap() && cfg.Router.Mode == router.ModeVC {
		n.cfg.Router.DatelineVCs = true
	}
	rc := n.cfg.Router
	rc.ID = 0
	rs, err := router.NewAll(rc, tiles)
	if err != nil {
		return nil, err
	}
	// The route functions below are method values taken once: evaluating
	// one per tile would allocate a closure per tile.
	var adaptive func(tile, dst int) []route.Dir
	if rc.Adaptive {
		adaptive = n.westFirstCandidates
	}
	var step func(tile, dst int) route.Dir
	if deflect {
		step = n.dimensionOrderStep
	}
	n.routers = make([]*router.Router, tiles)
	for tile := range rs {
		rs[tile].SetAdaptiveRoute(adaptive)
		rs[tile].SetDeflectRoute(step)
		n.routers[tile] = &rs[tile]
	}
	adjacency := cfg.Adjacency
	if adjacency == nil {
		adjacency = topology.Links(cfg.Topo)
	}
	links := link.NewAll(link.Config{
		SerdesCycles: cfg.SerdesCycles,
		Elastic:      cfg.ElasticLinks,
	}, len(adjacency))
	n.links = make([]linkEntry, len(adjacency))
	for i, tl := range adjacency {
		l := &links[i]
		l.From, l.Dir, l.LengthPitches = tl.From, tl.Dir, tl.Length
		if cfg.PhysWires {
			l.Phys = link.NewPhys(flit.DataBits, cfg.SpareWires, n.kernel.RNG())
			l.Phys.TransientProb = cfg.TransientProb
			l.Phys.ECC = cfg.ECC
		}
		n.links[i] = linkEntry{l: l, from: tl.From, to: tl.To, dir: tl.Dir}
		n.routers[tl.From].SetOutLink(tl.Dir, l, n.cfg.Router.BufFlits)
		n.routers[tl.To].SetInLink(tl.Dir.Opposite(), l)
		if n.cfg.Router.DatelineVCs && isDateline(cfg.Topo, tl) {
			n.routers[tl.From].SetDateline(tl.Dir, true)
		}
	}
	n.initShards()
	// Link worklists: membership bits and the tile×port -> link maps.
	n.linkOn = make([]bool, len(n.links))
	n.outLinkIdx = make([]int32, tiles*router.NumPorts)
	n.inLinkIdx = make([]int32, tiles*router.NumPorts)
	for i := range n.outLinkIdx {
		n.outLinkIdx[i] = -1
		n.inLinkIdx[i] = -1
	}
	for i := range n.links {
		le := &n.links[i]
		n.outLinkIdx[le.from*router.NumPorts+int(le.dir)] = int32(i)
		n.inLinkIdx[le.to*router.NumPorts+int(le.dir.Opposite())] = int32(i)
	}
	for _, r := range n.routers {
		r.SetPool(&n.shards[n.shardOf[r.ID()]].pool)
	}
	for _, le := range n.links {
		// A link recycles flits during Deliver (drop on a dead link), so it
		// draws from the pool of the shard that owns it: the receiver's.
		le.l.SetPool(&n.shards[n.shardOf[le.to]].pool)
	}
	ports := make([]Port, tiles)
	n.ports = make([]*Port, tiles)
	for tile := range ports {
		sh := n.shards[n.shardOf[tile]]
		p := &ports[tile]
		p.tile, p.net, p.shard, p.pool = tile, n, sh, &sh.pool
		n.ports[tile] = p
	}
	if n.probe != nil {
		// Every tile's router and port share one record, which reads their
		// counters in place; registering binds it to this network's.
		for tile, r := range n.routers {
			p := n.ports[tile]
			p.probe = n.probe.RegisterRouter(tile, n.cfg.Router.NumVCs, &r.Stats.RouterCounts, &p.PortCounts)
			r.SetProbe(p.probe)
		}
		for i, le := range n.links {
			px, py := cfg.Topo.PhysPos(le.from)
			n.probe.RegisterLink(i, le.from, le.to, le.dir, cfg.SerdesCycles, px, py, &le.l.LinkCounts)
		}
	}
	n.registerPhases()
	return n, nil
}

// isDateline reports whether a channel is its ring's wraparound dateline:
// the logical edge between coordinate k-1 and 0 in its dimension.
func isDateline(topo topology.Topology, tl topology.Link) bool {
	kx, ky := topo.Radix()
	fx, fy := topology.Coord(topo, tl.From)
	switch tl.Dir {
	case route.East:
		return fx == kx-1
	case route.West:
		return fx == 0
	case route.North:
		return fy == ky-1
	case route.South:
		return fy == 0
	}
	return false
}

// westFirstCandidates reports the productive outputs from tile toward dst
// under the west-first turn model: all westward hops happen first (no turn
// may enter the west direction later), after which the router may choose
// adaptively among the remaining productive directions. The turn model
// breaks every cycle in the mesh channel-dependency graph, so adaptive
// routing stays deadlock-free (Glass & Ni's turn model, applying the
// paper's §3 call to explore routing alternatives). The list depends only
// on the signs of the offsets, so it is one of westFirstSets' shared
// lists (nil when dst is tile) and routing a head flit allocates nothing.
func (n *Network) westFirstCandidates(tile, dst int) []route.Dir {
	kx, _ := n.topo.Radix()
	sx := cmp.Compare(dst%kx, tile%kx)
	sy := cmp.Compare(dst/kx, tile/kx)
	return westFirstSets[sx+1][sy+1]
}

// westFirstSets lists the west-first candidates by the signs of the x and
// y offsets (each shifted by one to index from 0), east before north
// before south; the adaptive router breaks credit ties toward the earlier
// candidate, so the order is part of the deterministic result. Callers
// must not modify the lists.
var westFirstSets = [3][3][]route.Dir{
	{{route.West}, {route.West}, {route.West}},
	{{route.South}, nil, {route.North}},
	{{route.East, route.South}, {route.East}, {route.East, route.North}},
}

// dimensionOrderStep is the per-cycle dimension-order preference of
// deflection routers.
func (n *Network) dimensionOrderStep(tile, dst int) route.Dir {
	return route.FirstStep(n.topo, tile, dst)
}

// registerPhases wires the cycle schedule described in DESIGN.md —
// deliver, route, link arbitration, switch arbitration, then the client
// half-cycle split into eject / clients / pump. Every phase except the
// serial client Tick is registered sharded (shard.go); with one shard the
// kernel runs the shard bodies inline, which *is* the classic sequential
// loop, so both modes execute the same code and cannot diverge.
func (n *Network) registerPhases() {
	k := n.kernel
	k.SetShards(len(n.shards))
	k.AddShardedPhase("deliver", n.deliverShard, n.deliverMerge)
	// The router phases walk the per-shard active worklists: a router
	// holding no flits has nothing buffered, staged, or bypassed, so route
	// computation and both arbitrations are state no-ops (the round-robin
	// arbiters only advance on a grant) and quiescent regions cost nothing.
	k.AddShardedPhase("route", n.routeShard, nil)
	// linkarb's merge applies cross-shard link activations (a send whose
	// receiving tile lives in another shard).
	k.AddShardedPhase("linkarb", n.linkarbShard, n.linkarbMerge)
	k.AddShardedPhase("switcharb", n.switcharbShard, nil)
	k.AddShardedPhase("eject", n.ejectShard, n.ejectMerge)
	k.AddPhase("clients", n.clientsTick)
	k.AddShardedPhase("pump", n.pumpShard, n.pumpMerge)
	if n.cfg.Watchdog > 0 {
		n.wdStarve = make([]int64, len(n.links))
		n.wdCredit = make([]bool, len(n.links))
		n.kernel.AddPhase("watchdog", n.watchdogTick)
	}
	// The sampling phase exists only when a probe asked for a series, so a
	// probe-less (or counters-only) network's cycle loop is untouched.
	if n.probe != nil && n.probe.SampleEvery() > 0 {
		every := n.probe.SampleEvery()
		n.kernel.AddPhase("telemetry", func(now sim.Cycle) {
			if int64(now)%every != 0 {
				return
			}
			for _, r := range n.routers {
				r.SampleTelemetry()
			}
			inFlight := int64(n.LinksInFlight())
			n.probe.AddSample(int64(now), int64(n.Occupancy())-inFlight, inFlight)
		})
	}
}

// AttachClient installs (or, with a nil client, removes) the client logic
// for a tile, keeping the dense ascending client list the serial client
// phase walks.
func (n *Network) AttachClient(tile int, c Client) {
	had := n.clients[tile] != nil
	n.clients[tile] = c
	switch {
	case c != nil && !had:
		i := sort.SearchInts(n.clientTiles, tile)
		n.clientTiles = append(n.clientTiles, 0)
		copy(n.clientTiles[i+1:], n.clientTiles[i:])
		n.clientTiles[i] = tile
	case c == nil && had:
		i := sort.SearchInts(n.clientTiles, tile)
		n.clientTiles = append(n.clientTiles[:i], n.clientTiles[i+1:]...)
	}
}

// Port returns the tile's network port.
func (n *Network) Port(tile int) *Port { return n.ports[tile] }

// Router returns the tile's router.
func (n *Network) Router(tile int) *router.Router { return n.routers[tile] }

// Kernel exposes the simulation kernel.
func (n *Network) Kernel() *sim.Kernel { return n.kernel }

// Recorder exposes the measurement recorder.
func (n *Network) Recorder() *Recorder { return n.recorder }

// Probe exposes the telemetry probe (nil when telemetry is disabled).
func (n *Network) Probe() *telemetry.Probe { return n.probe }

// Topology reports the network's topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// SerdesCycles reports the configured link cycles per flit.
func (n *Network) SerdesCycles() int { return n.cfg.SerdesCycles }

// Run advances the simulation by the given number of cycles.
func (n *Network) Run(cycles int64) { n.kernel.Run(cycles) }

// Occupancy reports flits buffered anywhere in the network (routers and
// links) in O(active components): every router holding a flit is on its
// shard's worklist (acceptance activates, the route sweep only drops
// empty routers), and every link with a flit in flight is on its link
// worklist (sends activate, the delivery sweep only drops idle links).
func (n *Network) Occupancy() int {
	total := 0
	for _, s := range n.shards {
		for _, t := range s.active {
			total += n.routers[t].Occupancy()
		}
	}
	return total + n.LinksInFlight()
}

// LinksInFlight reports flits in flight on the wires, O(active links).
func (n *Network) LinksInFlight() int {
	total := 0
	for _, s := range n.shards {
		for _, li := range s.activeLinks {
			total += n.links[li].l.InFlight()
		}
	}
	return total
}

// Drain runs the network until no flits remain in flight (sources must
// have stopped injecting) or the budget is exhausted, and reports whether
// it drained.
func (n *Network) Drain(budget int64) bool {
	return n.kernel.RunUntil(func() bool {
		if n.Occupancy() != 0 {
			return false
		}
		// Every port with pending or in-progress injections is on its
		// shard's pump worklist (Send/SendReserved enlist it and only the
		// pump sweep delists drained ports).
		for _, s := range n.shards {
			for _, t := range s.pumpList {
				if n.ports[t].PendingInjections() != 0 {
					return false
				}
			}
		}
		return true
	}, budget)
}

// ReservationSlot reports the link slot hop i of a flow with the given
// injection phase must reserve: injection reaches the first output link
// two cycles after the client drives the flit, and each hop adds the
// one-cycle switch plus one-cycle wire pipeline.
func ReservationSlot(phase, hop int) int { return phase + 2 + 2*hop }

// ReserveFlow books the reservation registers along the dimension-ordered
// route from src to dst for a flow that injects one flit on every cycle
// congruent to phase modulo the routers' reservation period (§2.6). The
// slot at hop i is phase+2+2i: injection reaches the first output link two
// cycles after the client drives the flit, and each hop adds the one-cycle
// switch plus one-cycle wire pipeline.
func (n *Network) ReserveFlow(src, dst, flow, phase int) (hops int, err error) {
	if n.cfg.Router.Adaptive {
		// The slots below assume the dimension-ordered path; an adaptive
		// router may take another, leaving reserved flits waiting on links
		// they never reach.
		return 0, fmt.Errorf("network: pre-scheduled flows require deterministic (dimension-ordered) routing")
	}
	if n.cfg.Router.ReservedVC < 0 {
		return 0, fmt.Errorf("network: configure Router.ReservedVC for pre-scheduled flows")
	}
	w, err := n.faultFreeRoute(src, dst)
	if err != nil {
		return 0, err
	}
	dirs, err := route.Walk(w)
	if err != nil {
		return 0, err
	}
	tile := src
	for i, d := range dirs {
		if err := n.routers[tile].Reservations(d).Reserve(ReservationSlot(phase, i), flow); err != nil {
			return 0, fmt.Errorf("network: hop %d at tile %d: %w", i, tile, err)
		}
		next, ok := n.topo.Neighbor(tile, d)
		if !ok {
			return 0, fmt.Errorf("network: route leaves topology at tile %d", tile)
		}
		tile = next
	}
	return len(dirs), nil
}

// dutyFactor is a link's §4.4 duty factor: the cycles its wires were busy
// over the kernel clock, which is every link's whole window because every
// link is built with the network.
func (n *Network) dutyFactor(l *link.Link) float64 {
	now := n.kernel.Now()
	if now == 0 {
		return 0
	}
	return float64(l.BusyCycles) / float64(now)
}

// LinkUtilization summarizes the duty factor of every inter-tile channel:
// the fraction of cycles each link's wires were busy (§4.4). Read it
// between cycles (after Run or Drain), where the kernel clock has counted
// every delivery phase that ran.
func (n *Network) LinkUtilization() stats.Summary {
	var s stats.Summary
	for _, le := range n.links {
		s.Add(n.dutyFactor(le.l))
	}
	return s
}

// MaxLinkUtilization reports the busiest channel's duty factor, read
// between cycles like LinkUtilization.
func (n *Network) MaxLinkUtilization() float64 {
	best := 0.0
	for _, le := range n.links {
		best = max(best, n.dutyFactor(le.l))
	}
	return best
}

// Activity reports the counts the §3.1 energy model multiplies out
// (power.Model.ActivityEnergy): hops, the router traversals counted so
// far, and bitPitches, every link's active bits times its length in tile
// pitches. The counters are integers owned by their components and
// summed in fixed router and link order, so the totals are the same at
// any shard count and across Fork and resume.
func (n *Network) Activity() (hops int64, bitPitches float64) {
	for _, r := range n.routers {
		hops += r.Stats.SwitchMoves + r.Stats.BypassMoves
	}
	for _, le := range n.links {
		bitPitches += float64(le.l.ActiveBits) * le.l.LengthPitches
	}
	return hops, bitPitches
}

// Links exposes the link entries for fault-injection experiments: the
// physical layer of link i is Links()[i].Phys (nil unless PhysWires).
func (n *Network) Links() []*link.Link {
	out := make([]*link.Link, len(n.links))
	for i, le := range n.links {
		out[i] = le.l
	}
	return out
}

func (n *Network) nextPacketID() uint64 {
	n.nextID++
	return n.nextID
}
