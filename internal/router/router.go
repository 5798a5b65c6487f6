package router

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// NumPorts is the number of router ports: four compass directions plus the
// tile (local) port. §2.3: "five input controllers (one for each direction
// and one for input from the tile) and five output controllers".
const NumPorts = 5

// Mode selects the flow-control discipline (§3.2 trade-off study).
type Mode int

// Flow-control modes.
const (
	// ModeVC is the paper's baseline: virtual-channel flow control with
	// credits.
	ModeVC Mode = iota
	// ModeDrop drops packets that arrive to a full buffer; it needs very
	// little buffering but wastes the wire energy already spent on the
	// dropped flits (§3.2).
	ModeDrop
)

// Config parameterizes a Router.
type Config struct {
	ID       int
	NumVCs   int // virtual channels per input controller (paper: 8)
	BufFlits int // flit buffers per VC (paper: 4)
	Mode     Mode

	// ReservedVC, when >= 0, dedicates that virtual channel to
	// pre-scheduled traffic: its flits bypass arbitration and credits and
	// depart on reserved link slots (§2.6).
	ReservedVC int
	// ResPeriod is the cyclic reservation table period in cycles.
	ResPeriod int
	// WorkConserving lets dynamic traffic use unclaimed reserved slots.
	WorkConserving bool

	// PriorityVCs marks virtual channels whose traffic wins switch
	// arbitration over non-priority VCs (the class-of-service use of the
	// VC mask, §2.1).
	PriorityVCs flit.VCMask

	// NonSpeculative disables the §2.3 latency optimization of performing
	// VC allocation in parallel with switch arbitration: head flits then
	// spend one extra cycle per hop. Ablation only.
	NonSpeculative bool

	// Adaptive switches from source routing to per-hop adaptive routing:
	// the route field is ignored and each router picks, among the
	// candidate productive outputs supplied by the network's turn-model
	// route function, the one with the most downstream credits. §3's
	// research agenda ("much room for improvement remains") includes
	// routing; west-first turn-model adaptivity is the classic
	// deadlock-free answer on a mesh.
	Adaptive bool

	// CutThrough switches from wormhole to virtual cut-through flow
	// control: a head flit only advances when the downstream VC has
	// buffer space for the *whole* packet, so blocked packets never
	// straddle routers. It trades the §3.2 buffer budget (BufFlits must
	// cover the longest packet) for shorter blocking chains — one of the
	// flow-control points in the design space §3.2 asks to be explored.
	CutThrough bool

	// ElasticLinks switches flow control to the §3.3/ref-[4] elastic
	// channels: the wire's repeater stages buffer flits with hop-by-hop
	// backpressure, the receiver pops a flit only when its VC buffer has
	// space, and no credits circulate — "closing flow control loops
	// locally so credits can be quickly recycled." Router input buffers
	// can then be as small as one flit at full per-VC throughput. Only
	// meaningful on acyclic-channel topologies (the mesh); the network
	// layer enforces that.
	ElasticLinks bool

	// DatelineVCs enables torus deadlock avoidance by splitting the VC
	// space into two classes: VCs [0, NumVCs/2) carry packets that have
	// not crossed the current dimension's wraparound dateline, VCs
	// [NumVCs/2, NumVCs) carry packets that have. Crossing a dateline
	// link moves a packet to the high class; turning into a new dimension
	// resets it. This breaks the cyclic channel dependency of
	// dimension-ordered routing on rings (Dally, "Virtual Channel Flow
	// Control", the paper's [2]). With it enabled, a VC-mask bit grants a
	// *pair* of VCs, one in each class, so any nonempty mask remains
	// routable across datelines. Requires an even NumVCs.
	DatelineVCs bool
}

// DefaultConfig returns the paper's router parameters.
func DefaultConfig(id int) Config {
	return Config{ID: id, NumVCs: flit.NumVCs, BufFlits: 4, ReservedVC: -1, ResPeriod: 1}
}

// vcState is the per-virtual-channel input state of Figure 3: an input
// buffer plus the routing/allocation state machine.
type vcState struct {
	// buf[head:] are the buffered flits. Dequeuing advances head instead
	// of re-slicing away the front, so the backing array's capacity is
	// reused forever and the steady-state buffer never allocates.
	buf  []*flit.Flit
	head int

	// frontHead caches front().Type.IsHead() while the buffer is
	// non-empty, so the eligibility test in switch arbitration can
	// classify body flits from the vcState's own cache line instead of
	// dereferencing the flit. Maintained by pushBack/popFront and
	// reconstituted by rebuildMasks after a restore.
	frontHead bool

	outPort  route.Dir
	outVC    int
	routed   bool
	routedAt int64

	// lastDeq is the cycle a flit last left this VC, for head-of-line age
	// watermarks (the starvation detector's signal). The HOL age of a
	// waiting VC is now - max(routedAt, lastDeq).
	lastDeq int64

	// Identity of the packet currently occupying the VC, captured at route
	// computation so AbandonInput can synthesize an abort tail even after
	// the packet's flits have moved on.
	pktID  uint64
	pktSrc int
	pktDst int
}

// bufLen reports the number of buffered flits.
func (st *vcState) bufLen() int { return len(st.buf) - st.head }

// front returns the flit at the front of the buffer.
func (st *vcState) front() *flit.Flit { return st.buf[st.head] }

// back returns the most recently buffered flit.
func (st *vcState) back() *flit.Flit { return st.buf[len(st.buf)-1] }

// popFront dequeues and returns the front flit.
func (st *vcState) popFront() *flit.Flit {
	f := st.buf[st.head]
	st.buf[st.head] = nil
	st.head++
	if st.head == len(st.buf) {
		st.buf = st.buf[:0]
		st.head = 0
	} else {
		st.frontHead = st.buf[st.head].Type.IsHead()
	}
	return f
}

// pushBack enqueues a flit, compacting the array in place when the dead
// front space is needed.
func (st *vcState) pushBack(f *flit.Flit) {
	if st.bufLen() == 0 {
		st.frontHead = f.Type.IsHead()
	}
	if st.head > 0 && len(st.buf) == cap(st.buf) {
		n := copy(st.buf, st.buf[st.head:])
		for i := n; i < len(st.buf); i++ {
			st.buf[i] = nil
		}
		st.buf = st.buf[:n]
		st.head = 0
	}
	st.buf = append(st.buf, f)
}

// inputController is one of the five input controllers.
//
// The per-VC booleans that drive the per-cycle scans are mirrored into
// packed bitmasks (bit v = VC v) so RouteCompute and SwitchArbitrate touch
// one word per port instead of walking NumVCs structs: occMask tracks
// bufLen() > 0, routedMask tracks vcState.routed, stuckMask tracks
// injected stuck-VC faults. The vcState fields remain the checkpointed
// source of truth; rebuildMasks reconstitutes the mirrors after a restore.
type inputController struct {
	dir        route.Dir
	occMask    uint32
	routedMask uint32
	stuckMask  uint32
	vcs        []vcState
	arb        rrArbiter
}

// push enqueues a flit on VC v, keeping the occupancy mask coherent.
func (ic *inputController) push(v int, f *flit.Flit) {
	ic.vcs[v].pushBack(f)
	ic.occMask |= 1 << uint(v)
}

// pop dequeues the front flit of VC v, keeping the occupancy mask coherent.
func (ic *inputController) pop(v int) *flit.Flit {
	st := &ic.vcs[v]
	f := st.popFront()
	if st.bufLen() == 0 {
		ic.occMask &^= 1 << uint(v)
	}
	return f
}

// setRouted flips the routing state machine of VC v, keeping the routed
// mask coherent.
func (ic *inputController) setRouted(v int, on bool) {
	if on {
		ic.vcs[v].routed = true
		ic.routedMask |= 1 << uint(v)
	} else {
		ic.vcs[v].routed = false
		ic.routedMask &^= 1 << uint(v)
	}
}

// outputController is one of the five output controllers: a single staging
// flit per input-port connection, the downstream credit and VC-allocation
// state, the reservation table, and the reserved-traffic bypass.
//
// Like the input side, the hot per-VC state is mirrored into packed masks:
// stagedMask tracks staging[i] != nil (bit i = input port i), creditMask
// tracks credits[v] > 0, ownerMask tracks vcOwner[v] != 0. The unpacked
// arrays remain the checkpointed source of truth.
type outputController struct {
	dir        route.Dir
	stagedMask uint32
	creditMask uint32
	ownerMask  uint32
	// credits is inline (not a heap slice) so the per-flit credit
	// take/return touches the same cache lines as the masks beside it;
	// only the first cfg.NumVCs entries are live.
	credits [flit.NumVCs]int32
	link    *link.Link // nil for the local port
	// entryFree caches link.EntryAlwaysFree(): when true, link arbitration
	// skips the CanSend pointer chase because the delivery phase provably
	// left the link's flit register empty this cycle.
	entryFree bool
	staging   [NumPorts]*flit.Flit
	bypass    []*flit.Flit // reserved flits awaiting their slot
	vcOwner   []uint64     // packetID+1 holding each downstream VC; 0 = free
	arb       rrArbiter
	table     *ResTable
	dateline  bool // this link crosses a torus ring's dateline
}

// addCredit restores one downstream credit on VC v.
func (oc *outputController) addCredit(v int) {
	oc.credits[v]++
	oc.creditMask |= 1 << uint(v)
}

// takeCredit consumes one downstream credit on VC v.
func (oc *outputController) takeCredit(v int) {
	oc.credits[v]--
	if oc.credits[v] == 0 {
		oc.creditMask &^= 1 << uint(v)
	}
}

// Stats counts router events.
type Stats struct {
	SwitchMoves    int64
	DroppedPackets int64
	DroppedFlits   int64
	Ejected        int64
	BypassMoves    int64

	// Fault accounting (runtime fault injection).
	FaultDroppedFlits   int64 // flits discarded because their output died
	FaultDroppedPackets int64 // tails among those flits (≈ packets cut here)
	AbortedPackets      int64 // mid-flight packets terminated by abort tails
}

// Router is the paper's virtual-channel router. The input and output
// controllers are stored by value, and NewAll carves every router's
// per-VC state from shared slabs, so a die's hot state is a few
// contiguous arrays rather than a pointer web — at 4096 tiles the
// difference is whether the per-cycle scan stays in cache.
type Router struct {
	cfg     Config
	inputs  [NumPorts]inputController
	outputs [NumPorts]outputController
	inLinks [NumPorts]*link.Link // upstream links, for returning credits

	// Precomputed VC-mask constants (see New): prioMask has a bit per
	// class-of-service priority VC, inReservedMask the input-side reserved
	// VC, reservedPairMask both dateline classes of the reserved pair, and
	// pairSelMask the low vcPairs() bits.
	prioMask         uint32
	inReservedMask   uint32
	reservedPairMask uint32
	pairSelMask      uint32

	// sentMask and creditedMask accumulate, per output/input port, which
	// ports sent a flit (mustSend) or returned an upstream credit
	// (creditUpstream) since the network last consumed them; the network's
	// link worklists use them to reactivate idle links. Bit i = port i.
	sentMask     uint32
	creditedMask uint32

	// outWorkMask has a bit per output port with possible link-arbitration
	// work: a staged or bypassed flit, or an active reservation table
	// (which must be consulted every cycle). LinkArbitrate walks only the
	// set bits and clears the ones that come up empty; moveFlit,
	// moveReserved, and Reservations set them.
	outWorkMask uint32

	// adaptiveFn reports the turn-model-legal productive outputs toward
	// dst from this tile (empty when dst is this tile). Set by the
	// network when Config.Adaptive is on.
	adaptiveFn func(tile, dst int) []route.Dir

	// Runtime fault state (see faults.go).
	stalledIn [NumPorts]bool
	stuckVC   [NumPorts][]bool // lazily allocated per-VC wedge flags
	deadOut   [NumPorts]bool
	anyDead   bool

	ejectQ []*flit.Flit

	// occ mirrors Occupancy() incrementally: flits in input buffers,
	// staging, bypass, and the eject queue. The network's active-set skip
	// bypasses the per-cycle phases of routers with occ == 0.
	occ int

	// pool, when non-nil, receives flits the router destroys (drop-mode
	// and fault discards) and supplies synthetic abort tails, keeping the
	// flit pool's accounting balanced.
	pool *flit.Pool

	// probe, when non-nil, receives telemetry events from the router
	// phases. The nil fast path keeps the cycle loop allocation-free.
	probe *telemetry.RouterProbe

	Stats Stats
}

// portIndex maps a direction to a port index.
func portIndex(d route.Dir) int { return int(d) }

// Describe renders the router's structure in the shape of the paper's
// Figures 2 and 3: five input controllers (per-VC buffers and state) and
// five output controllers (one staging buffer per input connection, VC
// allocation and credit state, the cyclic reservation table).
func (r *Router) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "router %d (Figs. 2-3 of the paper):\n", r.cfg.ID)
	fmt.Fprintf(&sb, "  %d input controllers (N E S W tile), each:\n", NumPorts)
	fmt.Fprintf(&sb, "    %d virtual channels x %d-flit input buffer + route/VC state\n",
		r.cfg.NumVCs, r.cfg.BufFlits)
	fmt.Fprintf(&sb, "    route step consumed per hop (2 bits: straight/left/right/extract)\n")
	fmt.Fprintf(&sb, "  %d output controllers (N E S W tile), each:\n", NumPorts)
	fmt.Fprintf(&sb, "    %d single-flit staging buffers (one per input connection)\n", NumPorts)
	fmt.Fprintf(&sb, "    VC allocation (%d VCs) + credit counters for the downstream buffers\n", r.cfg.NumVCs)
	fmt.Fprintf(&sb, "    cyclic reservation table, period %d", r.cfg.ResPeriod)
	if r.cfg.ReservedVC >= 0 {
		fmt.Fprintf(&sb, " (VC %d reserved for pre-scheduled flows)", r.cfg.ReservedVC)
	}
	sb.WriteByte('\n')
	features := []string{}
	if r.cfg.DatelineVCs {
		features = append(features, "dateline VC classes (torus deadlock avoidance)")
	}
	if r.cfg.CutThrough {
		features = append(features, "virtual cut-through")
	}
	if r.cfg.ElasticLinks {
		features = append(features, "elastic channels (no credits)")
	}
	if r.cfg.Adaptive {
		features = append(features, "west-first adaptive routing")
	}
	if r.cfg.NonSpeculative {
		features = append(features, "sequential (non-speculative) VC allocation")
	}
	if len(features) > 0 {
		fmt.Fprintf(&sb, "  options: %s\n", strings.Join(features, ", "))
	}
	return sb.String()
}

// New returns a router with the given configuration: a one-router NewAll.
func New(cfg Config) (*Router, error) {
	rs, err := NewAll(cfg, 1)
	if err != nil {
		return nil, err
	}
	return &rs[0], nil
}

// NewAll returns count routers built from cfg, with IDs cfg.ID,
// cfg.ID+1, and so on. Their VC states, VC buffer slots, downstream
// VC-owner words and reservation tables are carved from one slab each,
// so a die of any size costs the same few allocations. Every carved
// slice is cut with a full slice expression (s[lo:lo:hi]): VC buffers,
// abort tails and checkpoint restore all append, and an append past a
// slice's capacity must reallocate, not run on into the next VC's slots.
func NewAll(cfg Config, count int) ([]Router, error) {
	if cfg.NumVCs < 1 || cfg.NumVCs > flit.NumVCs {
		return nil, fmt.Errorf("router: NumVCs %d outside [1,%d]", cfg.NumVCs, flit.NumVCs)
	}
	if cfg.BufFlits < 1 {
		return nil, fmt.Errorf("router: BufFlits %d < 1", cfg.BufFlits)
	}
	if cfg.ReservedVC >= cfg.NumVCs {
		return nil, fmt.Errorf("router: reserved VC %d outside VC range", cfg.ReservedVC)
	}
	if cfg.DatelineVCs && cfg.NumVCs%2 != 0 {
		return nil, fmt.Errorf("router: dateline VC classes need an even VC count, got %d", cfg.NumVCs)
	}
	if cfg.ResPeriod < 1 {
		cfg.ResPeriod = 1
	}
	nvc, period := cfg.NumVCs, cfg.ResPeriod
	depth := cfg.BufFlits + 1 // +1: AbandonInput may append an abort tail to a full buffer.
	rs := make([]Router, count)
	states := make([]vcState, count*NumPorts*nvc)
	slots := make([]*flit.Flit, len(states)*depth)
	owners := make([]uint64, len(states))
	tables := make([]ResTable, count*NumPorts)
	flows := make([]int, len(tables)*period)
	for i := range rs {
		r := &rs[i]
		r.cfg = cfg
		r.cfg.ID = cfg.ID + i
		r.setVCMasks()
		for p := 0; p < NumPorts; p++ {
			k := (i*NumPorts + p) * nvc // this port's first VC in the slabs
			ic := &r.inputs[p]
			ic.dir = route.Dir(p)
			ic.arb = rrArbiter{n: nvc}
			ic.vcs = states[k : k+nvc : k+nvc]
			for v := range ic.vcs {
				s := (k + v) * depth
				ic.vcs[v] = vcState{outVC: -1, buf: slots[s : s : s+depth]}
			}
			oc := &r.outputs[p]
			oc.dir = route.Dir(p)
			oc.arb = rrArbiter{n: NumPorts}
			oc.vcOwner = owners[k : k+nvc : k+nvc]
			t, f := &tables[i*NumPorts+p], (i*NumPorts+p)*period
			*t = ResTable{period: period, flows: flows[f : f+period : f+period], WorkConserving: cfg.WorkConserving}
			oc.table = t
		}
	}
	return rs, nil
}

// setVCMasks precomputes the VC-mask constants from the configuration.
func (r *Router) setVCMasks() {
	cfg := &r.cfg
	pairs := r.vcPairs()
	r.pairSelMask = 1<<uint(pairs) - 1
	if cfg.ReservedVC >= 0 {
		r.inReservedMask = 1 << uint(cfg.ReservedVC)
		r.reservedPairMask = 1 << uint(cfg.ReservedVC%pairs)
		if cfg.DatelineVCs {
			r.reservedPairMask |= r.reservedPairMask << uint(pairs)
		}
	}
	for v := 0; v < cfg.NumVCs; v++ {
		if r.isPriority(v) {
			r.prioMask |= 1 << uint(v)
		}
	}
}

// ID reports the router's tile id.
func (r *Router) ID() int { return r.cfg.ID }

// Config reports the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// SetOutLink attaches the outgoing link in direction d and initializes its
// credit counters to the downstream buffer depth.
func (r *Router) SetOutLink(d route.Dir, l *link.Link, downstreamBufFlits int) {
	oc := &r.outputs[portIndex(d)]
	oc.link = l
	oc.entryFree = l != nil && l.EntryAlwaysFree()
	oc.creditMask = 0
	for v := range oc.credits[:r.cfg.NumVCs] {
		oc.credits[v] = int32(downstreamBufFlits)
		if downstreamBufFlits > 0 {
			oc.creditMask |= 1 << uint(v)
		}
	}
}

// SetInLink attaches the incoming link in direction d, used to return
// credits upstream.
func (r *Router) SetInLink(d route.Dir, l *link.Link) {
	r.inLinks[portIndex(d)] = l
}

// SetDateline marks the output link in direction d as crossing its ring's
// dateline (only meaningful with Config.DatelineVCs).
func (r *Router) SetDateline(d route.Dir, crossing bool) {
	r.outputs[portIndex(d)].dateline = crossing
}

// SetAdaptiveRoute installs the per-hop candidate function for adaptive
// routing (Config.Adaptive).
func (r *Router) SetAdaptiveRoute(fn func(tile, dst int) []route.Dir) {
	r.adaptiveFn = fn
}

// SetPool attaches the owning network's flit pool; flits the router
// discards are recycled into it and abort tails are drawn from it.
func (r *Router) SetPool(p *flit.Pool) { r.pool = p }

// Pool reports the flit pool the router recycles through.
func (r *Router) Pool() *flit.Pool { return r.pool }

// SetProbe attaches the router's telemetry probe (nil disables telemetry).
func (r *Router) SetProbe(rp *telemetry.RouterProbe) { r.probe = rp }

// SampleTelemetry contributes the current per-VC input-buffer occupancy to
// the probe's time series. Called by the network's sampling phase; no-op
// without a probe.
func (r *Router) SampleTelemetry() {
	if r.probe == nil {
		return
	}
	for pi := range r.inputs {
		ic := &r.inputs[pi]
		for v := range ic.vcs {
			r.probe.VCOccSum[v] += int64(ic.vcs[v].bufLen())
		}
	}
	r.probe.Samples++
}

// Reservations exposes the reservation table of the output port in
// direction d, so the network-level scheduler can book slots. The output
// joins the link-arbitration work mask pessimistically: if the caller
// books nothing, the next LinkArbitrate pass drops it again.
func (r *Router) Reservations(d route.Dir) *ResTable {
	r.outWorkMask |= 1 << uint(portIndex(d))
	return r.outputs[portIndex(d)].table
}

// CanInject reports whether the tile input port can accept a flit on the
// given virtual channel this cycle: the per-VC ready signal of §2.1.
func (r *Router) CanInject(vc int) bool {
	if vc < 0 || vc >= r.cfg.NumVCs {
		return false
	}
	return r.inputs[portIndex(route.Local)].vcs[vc].bufLen() < r.cfg.BufFlits
}

// AcceptFlit receives a flit on the input controller for direction from
// (route.Local for client injection). Under credit flow control a buffer
// overflow indicates a protocol violation and panics; in drop mode the
// packet is discarded instead (§3.2).
func (r *Router) AcceptFlit(f *flit.Flit, from route.Dir) {
	ic := &r.inputs[portIndex(from)]
	if f.VC < 0 || f.VC >= r.cfg.NumVCs {
		panic(fmt.Sprintf("router %d: flit %v on invalid VC", r.cfg.ID, f))
	}
	st := &ic.vcs[f.VC]
	if r.cfg.Mode == ModeDrop {
		// Dropping flow control transports single-flit packets (as
		// contention-dropping networks do): a drop is then always a whole
		// packet and no VC can wedge waiting for a discarded tail.
		if f.Type != flit.HeadTail {
			panic(fmt.Sprintf("router %d: multi-flit packet %v in drop mode", r.cfg.ID, f))
		}
		if st.bufLen() >= r.cfg.BufFlits {
			r.Stats.DroppedFlits++
			r.Stats.DroppedPackets++
			if r.pool != nil {
				r.pool.Put(f)
			}
			return
		}
		ic.push(f.VC, f)
		r.occ++
		return
	}
	if st.bufLen() >= r.cfg.BufFlits {
		panic(fmt.Sprintf("router %d: input %v VC %d overflow (credit protocol violation)",
			r.cfg.ID, from, f.VC))
	}
	ic.push(f.VC, f)
	r.occ++
}

// adaptiveChoice picks the candidate output with the most free downstream
// credits — a congestion-aware choice among the turn-model-legal
// productive directions. Ties go to the earlier candidate, keeping the
// simulation deterministic.
func (r *Router) adaptiveChoice(f *flit.Flit) route.Dir {
	if r.adaptiveFn == nil {
		panic(fmt.Sprintf("router %d: adaptive routing without a route function", r.cfg.ID))
	}
	candidates := r.adaptiveFn(r.cfg.ID, f.Dst)
	if len(candidates) == 0 {
		return route.Local
	}
	best := candidates[0]
	bestCredits := -1
	for _, d := range candidates {
		oc := &r.outputs[portIndex(d)]
		total := 0
		for v, c := range oc.credits[:r.cfg.NumVCs] {
			if oc.vcOwner[v] == 0 {
				total += int(c)
			}
		}
		if total > bestCredits {
			best, bestCredits = d, total
		}
	}
	return best
}

// RouteCompute strips the next route step from head flits at the front of
// each VC buffer (§2.3: "the input controller strips the next entry off
// the route field and uses these two bits to select one of four output
// ports").
func (r *Router) RouteCompute(now int64) {
	for pi := range r.inputs {
		ic := &r.inputs[pi]
		if r.stalledIn[pi] {
			continue
		}
		// Occupied, unrouted, unwedged VCs: one packed word per port.
		for m := ic.occMask &^ ic.routedMask &^ ic.stuckMask; m != 0; m &= m - 1 {
			vi := bits.TrailingZeros32(m)
			st := &ic.vcs[vi]
			f := st.front()
			if !f.Type.IsHead() {
				panic(fmt.Sprintf("router %d: non-head flit %v at front of unrouted VC", r.cfg.ID, f))
			}
			st.pktID, st.pktSrc, st.pktDst = f.PacketID, f.Src, f.Dst
			if r.cfg.Adaptive {
				st.outPort = r.adaptiveChoice(f)
			} else {
				code, rest := f.Route.Pop()
				f.Route = rest
				if route.Dir(pi) == route.Local {
					st.outPort = route.AbsDir(code)
				} else {
					heading := route.Dir(pi).Opposite()
					st.outPort = route.Turn(heading, code)
				}
			}
			ic.setRouted(vi, true)
			st.routedAt = now
			if r.probe != nil {
				r.probe.Routed++
				r.probe.Trace(telemetry.EvRoute, now, f.PacketID, int32(r.cfg.ID), int32(st.outPort))
			}
		}
	}
}
