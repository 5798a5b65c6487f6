package network

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// Client is the logic in a tile that uses the network. Tick runs once per
// cycle after deliveries are available on the port.
type Client interface {
	Tick(now int64, p *Port)
}

// ClientFunc adapts a function to the Client interface.
type ClientFunc func(now int64, p *Port)

// Tick implements Client.
func (f ClientFunc) Tick(now int64, p *Port) { f(now, p) }

// Delivery is a packet handed to the client by the network, reassembled
// from its flits.
type Delivery struct {
	PacketID    uint64
	Src, Dst    int
	Payload     []byte
	Class, Flow int
	Birth       int64
	Arrived     int64
	Flits       int
}

// injection is one packet being (or waiting to be) driven into the tile
// input port, one flit per cycle.
type injection struct {
	flits  []*flit.Flit
	next   int
	vc     int // -1 until chosen at head injection
	class  int
	seq    uint64 // creation order, for deterministic tie-breaks
	inject int64  // cycle the head entered the network
}

func (in *injection) done() bool { return in.next >= len(in.flits) }

// partialSlot accumulates the flits of one in-flight packet at the
// delivery side. id 0 marks a free slot (packet ids start at 1); the flits
// slice keeps its capacity across packets. A small linear-searched slice
// replaces the map the port used to key by packet id: only a handful of
// packets interleave at one port (at most one per input VC), so the scan
// is shorter than a map lookup and never allocates.
type partialSlot struct {
	id    uint64
	flits []*flit.Flit
}

// Port is the paper's §2.1 tile interface: a 256-bit injection port with
// per-VC ready signals and a delivery port. One flit moves in each
// direction per cycle.
type Port struct {
	tile int
	net  *Network

	// shard is the tile's owning shard; recorder-bound counts and pool
	// traffic go through it so the eject and pump phases stay shard-local
	// (shard.go). pool aliases shard.pool.
	shard *shardState
	pool  *flit.Pool

	// probe is the tile's telemetry probe (shared with the tile's router);
	// nil is the disabled fast path.
	probe *telemetry.RouterProbe

	pending  []*injection
	reserved []*injection
	active   [flit.NumVCs]*injection // in-progress packet per VC; nil = idle

	// activeCount tracks non-nil active entries, and onPump / onLoop mark
	// membership on the shard's pump and loopback worklists, so the pump
	// and eject phases visit only ports with work (shard.go).
	activeCount int
	onPump      bool
	onLoop      bool

	partials []partialSlot

	// rx accumulates this cycle's deliveries; lent is the slice handed out
	// by the previous Deliveries call. The two swap every call, and lent's
	// Delivery objects are recycled through freeDel — which is why a
	// Deliveries result is only valid until the next call.
	rx, lent []*Delivery
	freeDel  []*Delivery

	freeInj []*injection

	// pkt is the segmentation scratch packet, reused so Send never
	// heap-allocates a Packet.
	pkt flit.Packet

	loopback []*Delivery // src == dst deliveries, available next cycle
	loopAt   []int64

	// BlockedReserved counts cycles a pre-scheduled flit missed its
	// injection slot because the port was not ready — a schedule
	// violation if nonzero.
	BlockedReserved int64
}

// Tile reports the port's tile id.
func (p *Port) Tile() int { return p.tile }

// canInject reports whether the tile's router can take a flit on the
// given virtual channel this cycle: the per-VC ready signal of §2.1.
func (p *Port) canInject(vc int) bool {
	if p.net.cfg.Deflect {
		return p.net.defls[p.tile].CanInject()
	}
	return p.net.routers[p.tile].CanInject(vc)
}

// injWork reports packets queued or in progress at the injection side —
// the condition for staying on the shard's pump worklist.
func (p *Port) injWork() int {
	return len(p.pending) + len(p.reserved) + p.activeCount
}

// notePump enlists the port on its shard's pump worklist. Called with
// work just queued, from the serial client phase or between cycles.
func (p *Port) notePump() {
	if p.onPump {
		return
	}
	p.onPump = true
	p.shard.pumpList = append(p.shard.pumpList, int32(p.tile))
}

// noteLoopback enlists the port on its shard's loopback worklist.
func (p *Port) noteLoopback() {
	if p.onLoop {
		return
	}
	p.onLoop = true
	p.shard.loopList = append(p.shard.loopList, int32(p.tile))
}

func (p *Port) getDelivery() *Delivery {
	n := len(p.freeDel)
	if n == 0 {
		return &Delivery{}
	}
	d := p.freeDel[n-1]
	p.freeDel[n-1] = nil
	p.freeDel = p.freeDel[:n-1]
	return d
}

func (p *Port) putDelivery(d *Delivery) {
	payload := d.Payload[:0]
	*d = Delivery{Payload: payload}
	p.freeDel = append(p.freeDel, d)
}

func (p *Port) getInjection() *injection {
	n := len(p.freeInj)
	if n == 0 {
		return &injection{vc: -1}
	}
	in := p.freeInj[n-1]
	p.freeInj[n-1] = nil
	p.freeInj = p.freeInj[:n-1]
	return in
}

func (p *Port) putInjection(in *injection) {
	for i := range in.flits {
		in.flits[i] = nil
	}
	flits := in.flits[:0]
	*in = injection{flits: flits, vc: -1}
	p.freeInj = append(p.freeInj, in)
}

// Send queues a packet for injection and returns its id. The virtual
// channel is chosen from mask at injection time; class sets the
// arbitration priority among this tile's own packets (higher wins, and the
// paper's "long, low priority packet may be interrupted" behaviour follows
// from per-flit re-arbitration). The payload is copied; the caller may
// reuse its buffer.
func (p *Port) Send(dst int, payload []byte, mask flit.VCMask, class int) (uint64, error) {
	if dst < 0 || dst >= p.net.topo.NumTiles() {
		return 0, fmt.Errorf("network: destination %d out of range", dst)
	}
	if mask == 0 {
		return 0, fmt.Errorf("network: empty VC mask")
	}
	p.pkt = flit.Packet{Payload: payload}
	nf := p.pkt.NumFlits()
	if dst != p.tile {
		// Refused before the packet takes an id or counts as generated.
		if err := p.net.cfg.CheckPacketFlits(nf); err != nil {
			return 0, err
		}
	}
	now := p.net.kernel.Now()
	id := p.net.nextPacketID()
	p.net.recorder.Generated++
	if dst == p.tile {
		// Loopback: the network never sees the packet; it is delivered
		// through the port pair directly on the next cycle.
		d := p.getDelivery()
		d.PacketID, d.Src, d.Dst = id, p.tile, dst
		d.Payload = append(d.Payload[:0], payload...)
		d.Class, d.Birth, d.Flits = class, now, nf
		p.loopback = append(p.loopback, d)
		p.loopAt = append(p.loopAt, now+1)
		p.noteLoopback()
		return id, nil
	}
	w, rerouted, err := p.net.routeFor(p.tile, dst)
	if err != nil {
		p.net.recorder.Generated--
		p.net.unroutable++
		return 0, err
	}
	if rerouted {
		p.net.rerouted++
	}
	p.pkt = flit.Packet{
		ID: id, Src: p.tile, Dst: dst,
		Mask: mask, Route: w, Payload: payload, Birth: now, Class: class,
		// The hop count is stamped at send time because head flits consume
		// Route step by step in flight; the final Extract step is not a
		// link traversal.
		Hops: w.Len() - 1,
	}
	in := p.getInjection()
	in.flits = p.pkt.AppendFlits(in.flits[:0], p.pool)
	in.class, in.seq = class, id
	p.pending = append(p.pending, in)
	p.notePump()
	return id, nil
}

// SendReserved queues a single-flit packet of a pre-scheduled flow for
// immediate injection on the reserved virtual channel. The caller (a
// stream source) must call it on the cycle matching the flow's reserved
// phase; the routes and link slots were booked by Network.ReserveFlow.
func (p *Port) SendReserved(dst int, payload []byte, flow int) (uint64, error) {
	rvc := p.net.cfg.Router.ReservedVC
	if rvc < 0 {
		return 0, fmt.Errorf("network: no reserved VC configured")
	}
	if len(payload) > flit.DataBytes {
		return 0, fmt.Errorf("network: reserved packets are single-flit (%d bytes max)", flit.DataBytes)
	}
	now := p.net.kernel.Now()
	id := p.net.nextPacketID()
	w, err := p.net.faultFreeRoute(p.tile, dst)
	if err != nil {
		return 0, err
	}
	p.pkt = flit.Packet{
		ID: id, Src: p.tile, Dst: dst,
		Mask: flit.MaskFor(rvc), Route: w, Payload: payload, Birth: now, Class: 0,
		Hops: w.Len() - 1,
	}
	p.net.recorder.Generated++
	in := p.getInjection()
	in.flits = p.pkt.AppendFlits(in.flits[:0], p.pool)
	for _, f := range in.flits {
		f.VC = rvc
		f.Flow = flow
	}
	in.vc, in.class, in.seq = rvc, 1<<30, id
	p.reserved = append(p.reserved, in)
	p.notePump()
	return id, nil
}

// Deliveries returns and clears the packets delivered since the last call.
// The returned slice and the Delivery values in it (including their
// Payload bytes) are only valid until the next Deliveries call on this
// port: the port recycles them. Callers that keep a delivery or its
// payload across cycles must copy what they keep.
func (p *Port) Deliveries() []*Delivery {
	for i, d := range p.lent {
		p.putDelivery(d)
		p.lent[i] = nil
	}
	out := p.rx
	p.rx = p.lent[:0]
	p.lent = out
	return out
}

// PendingInjections reports queued plus in-progress packets, for
// source-queue depth measurements. A non-nil active entry is never done
// (pump clears it the cycle its last flit injects), so this is exactly
// the pump worklist condition.
func (p *Port) PendingInjections() int { return p.injWork() }

// findPartial returns the reassembly slot for packet id, or nil.
func (p *Port) findPartial(id uint64) *partialSlot {
	for i := range p.partials {
		if p.partials[i].id == id {
			return &p.partials[i]
		}
	}
	return nil
}

// findOrAddPartial returns the reassembly slot for packet id, claiming a
// free slot (or growing the slot list) if the packet is new.
func (p *Port) findOrAddPartial(id uint64) *partialSlot {
	var free *partialSlot
	for i := range p.partials {
		s := &p.partials[i]
		if s.id == id {
			return s
		}
		if s.id == 0 && free == nil {
			free = s
		}
	}
	if free != nil {
		free.id = id
		return free
	}
	p.partials = append(p.partials, partialSlot{id: id})
	return &p.partials[len(p.partials)-1]
}

// releasePartial recycles a slot's flits into the pool and frees the slot.
func (p *Port) releasePartial(s *partialSlot) {
	for i, f := range s.flits {
		p.pool.Put(f)
		s.flits[i] = nil
	}
	s.flits = s.flits[:0]
	s.id = 0
}

// receive accepts ejected flits from the router and reassembles packets.
// Every flit handed in is consumed: reassembled into a Delivery payload
// and recycled, or (abort tails, aborted partials) recycled directly.
func (p *Port) receive(flits []*flit.Flit, now int64) {
	for _, f := range flits {
		if f.Seq == router.AbortSeq {
			// Synthetic abort tail: the packet was cut mid-flight by a
			// dead link and will never complete. Discard the partial.
			if s := p.findPartial(f.PacketID); s != nil {
				p.releasePartial(s)
			}
			p.shard.aborted++
			if p.probe != nil {
				p.probe.AbortedPackets++
				p.probe.Trace(telemetry.EvAbort, now, f.PacketID, int32(p.tile), 0)
			}
			p.pool.Put(f)
			continue
		}
		s := p.findOrAddPartial(f.PacketID)
		s.flits = append(s.flits, f)
		if !f.Type.IsTail() {
			continue
		}
		parts := s.flits
		if len(parts) != f.Seq+1 {
			continue // flits still in flight (cannot happen per-VC, but be safe)
		}
		d := p.getDelivery()
		if err := reassembleInto(d, parts); err != nil {
			panic(fmt.Sprintf("network: tile %d packet %d reassembly: %v", p.tile, f.PacketID, err))
		}
		d.PacketID, d.Src, d.Dst = f.PacketID, f.Src, f.Dst
		d.Class, d.Flow = f.Class, f.Flow
		d.Birth, d.Arrived, d.Flits = f.Birth, now, len(parts)
		p.rx = append(p.rx, d)
		if p.probe != nil {
			p.probe.DeliveredFlits += int64(len(parts))
			p.probe.DeliveredPackets++
			p.probe.Trace(telemetry.EvEject, now, f.PacketID, int32(p.tile), int32(len(parts)))
		}
		// Deferred recorder update: the flit is recycled below, so capture
		// the fields packetDone needs; ejectMerge applies them in tile
		// order behind the phase barrier.
		p.shard.dones = append(p.shard.dones, doneRec{
			id: f.PacketID, birth: f.Birth, inject: f.Inject,
			src: f.Src, dst: f.Dst, hops: f.Hops,
			class: f.Class, flow: f.Flow, flits: len(parts),
		})
		p.releasePartial(s)
	}
}

// reassembleInto concatenates the packet's payload into the delivery's
// reused buffer. Wormhole routing delivers a packet's flits in sequence
// order on one VC, so the in-order fast path almost always applies; the
// allocation-heavy flit.Reassemble handles (and diagnoses) anything else.
func reassembleInto(d *Delivery, parts []*flit.Flit) error {
	n := len(parts)
	ok := n > 0 && parts[0].Type.IsHead() && parts[n-1].Type.IsTail()
	if ok {
		for i, f := range parts {
			if f.Seq != i {
				ok = false
				break
			}
		}
	}
	if ok {
		buf := d.Payload[:0]
		for _, f := range parts {
			buf = append(buf, f.Data...)
		}
		d.Payload = buf
		return nil
	}
	payload, err := flit.Reassemble(parts)
	if err != nil {
		return err
	}
	d.Payload = append(d.Payload[:0], payload...)
	return nil
}

// deliverLoopbacks releases matured loopback packets.
func (p *Port) deliverLoopbacks(now int64) {
	if len(p.loopback) == 0 {
		return
	}
	keep := p.loopback[:0]
	keepAt := p.loopAt[:0]
	for i, d := range p.loopback {
		if p.loopAt[i] <= now {
			d.Arrived = now
			p.rx = append(p.rx, d)
			p.shard.delivered++
			p.shard.deliveredFlits += int64(d.Flits)
		} else {
			keep = append(keep, d)
			keepAt = append(keepAt, p.loopAt[i])
		}
	}
	p.loopback, p.loopAt = keep, keepAt
}

// pump drives at most one flit into the network this cycle, preferring
// pre-scheduled flits, then the highest class among in-progress and
// pending packets. This is the client-side injection arbitration whose
// observable behaviour §2.1 describes: "the injection of a long, low
// priority packet may be interrupted to inject a short, high-priority
// packet and then resumed."
func (p *Port) pump(now int64) {
	if len(p.reserved) > 0 {
		in := p.reserved[0]
		f := in.flits[in.next]
		if !p.canInject(f.VC) {
			p.BlockedReserved++
			return
		}
		p.injectFlit(in, now)
		if in.done() {
			p.reserved = p.reserved[1:]
			p.putInjection(in)
		}
		return
	}

	// Pick the winner directly: highest class, then lowest seq. Packet
	// ids are unique, so this total order selects exactly the candidate
	// the old stable sort put first — without building or sorting a
	// candidate slice.
	var best *injection
	bestFresh := false
	better := func(in *injection) bool {
		if best == nil {
			return true
		}
		if in.class != best.class {
			return in.class > best.class
		}
		return in.seq < best.seq
	}
	for v := 0; v < flit.NumVCs; v++ {
		in := p.active[v]
		if in == nil || in.done() {
			continue
		}
		if p.canInject(v) && better(in) {
			best, bestFresh = in, false
		}
	}
	// Only the oldest startable pending packet competes. Once the oldest
	// finds no free VC, the VCs free to younger packets depend only on
	// state this loop does not change, so they are probed once and each
	// younger packet costs a mask test, not a probe.
	var free, start flit.VCMask // start: the candidate's free VCs
	for i, in := range p.pending {
		if i == 1 {
			if free = p.freeVCs(^flit.VCMask(0), false); free == 0 {
				break
			}
		}
		start = in.flits[0].Mask & free
		if i == 0 {
			start = p.freeVCs(in.flits[0].Mask, true)
		}
		if start != 0 {
			if better(in) {
				best, bestFresh = in, true
			}
			break
		}
	}
	if best == nil {
		return
	}
	if bestFresh {
		vc := start.Lowest()
		best.vc = vc
		for _, f := range best.flits {
			f.VC = vc
		}
		p.active[vc] = best
		p.activeCount++
		p.removePending(best)
	}
	p.injectFlit(best, now)
	if best.done() {
		p.active[best.vc] = nil
		p.activeCount--
		p.putInjection(best)
	}
}

// freeVCs reports which virtual channels of mask are free for a new
// packet — ready at the router, with no packet of this port in progress —
// stopping at the lowest when first is set. VCs of the reserved
// pre-scheduled pair are never used for dynamic traffic (under dateline
// classes the reservation covers both class partners).
func (p *Port) freeVCs(mask flit.VCMask, first bool) flit.VCMask {
	rc := p.net.cfg.Router
	numVCs := rc.NumVCs
	if numVCs <= 0 || numVCs > flit.NumVCs {
		numVCs = flit.NumVCs
	}
	reserved := func(v int) bool {
		if rc.ReservedVC < 0 {
			return false
		}
		if v == rc.ReservedVC {
			return true
		}
		if rc.DatelineVCs {
			pairs := numVCs / 2
			return v%pairs == rc.ReservedVC%pairs
		}
		return false
	}
	var free flit.VCMask
	for v := 0; v < numVCs; v++ {
		if mask.Has(v) && !reserved(v) && p.active[v] == nil && p.canInject(v) {
			free |= flit.MaskFor(v)
			if first {
				break
			}
		}
	}
	return free
}

func (p *Port) removePending(in *injection) {
	for i, q := range p.pending {
		if q == in {
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			return
		}
	}
}

func (p *Port) injectFlit(in *injection, now int64) {
	f := in.flits[in.next]
	if in.next == 0 {
		in.inject = now
		p.shard.injected++
		if p.probe != nil {
			p.probe.Trace(telemetry.EvInject, now, f.PacketID, int32(f.Src), int32(f.Dst))
		}
	}
	if p.probe != nil {
		p.probe.InjectedFlits++
	}
	f.Inject = in.inject
	in.next++
	p.net.acceptAt(p.tile, f, route.Local)
}
