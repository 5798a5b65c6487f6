package network

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/flit"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/stats"
)

// This file is the checkpoint orchestration layer: Network.SaveCheckpoint
// walks every stateful component — routers, links, ports, recorder, fault
// map, telemetry, clients, and any registered extras (e.g. a fault
// injector) — into one section-tagged snapshot, and RestoreCheckpoint
// rebuilds that state into a freshly constructed network with the same
// configuration. The clock is the container's cycle, and each random
// stream is saved with the component that draws it.
//
// A checkpoint is taken between cycles (the core layer registers a serial
// end-of-cycle phase), where every per-shard deferral buffer is empty and
// the per-component state is byte-identical for any shard count. Shard
// partitioning, flit free-lists, worklists, and the route table are all
// derived or semantically invisible state, so they are never serialised:
// restore recomputes occupancy and worklists.

// StatefulClient is a Client whose dynamic state rides along in network
// checkpoints. SaveCheckpoint refuses networks with attached clients that
// do not implement it.
type StatefulClient interface {
	Client
	SaveState(e *checkpoint.Encoder)
	RestoreState(d *checkpoint.Decoder)
}

// CheckpointExtra is additional per-run state (e.g. a fault injector's
// schedule cursor) registered onto the network's checkpoint with
// AddCheckpointExtra.
type CheckpointExtra interface {
	SaveState(e *checkpoint.Encoder)
	RestoreState(d *checkpoint.Decoder)
}

type checkpointExtra struct {
	name string
	x    CheckpointExtra
}

// AddCheckpointExtra registers extra state under the given name; it is
// saved in every subsequent checkpoint and must be registered again (same
// name, same order) before restore.
func (n *Network) AddCheckpointExtra(name string, x CheckpointExtra) {
	n.extras = append(n.extras, checkpointExtra{name: name, x: x})
}

// OnRestore registers fn to run at the end of every successful
// RestoreCheckpoint, once every section is in place: an observer that
// differences cumulative counters rebases its baseline there.
func (n *Network) OnRestore(fn func()) { n.onRestore = append(n.onRestore, fn) }

// NoteCheckpoint records that a checkpoint covering state up to cycle was
// written, for the observability layer's staleness reporting.
func (n *Network) NoteCheckpoint(cycle int64) { n.lastCkptCycle = cycle }

// LastCheckpoint reports the cycle of the most recent checkpoint and
// whether any checkpoint has been taken this run.
func (n *Network) LastCheckpoint() (cycle int64, ok bool) {
	return n.lastCkptCycle, n.lastCkptCycle >= 0
}

// NoteCheckpointInterval records the configured snapshot interval, so the
// observability layer can judge checkpoint staleness.
func (n *Network) NoteCheckpointInterval(every int64) { n.ckptEvery = every }

// CheckpointInterval reports the configured snapshot interval in cycles
// (0 = checkpointing off).
func (n *Network) CheckpointInterval() int64 { return n.ckptEvery }

// checkpointable reports why this network cannot be checkpointed, or nil:
// an attached client whose state cannot ride along.
func (n *Network) checkpointable() error {
	for tile, c := range n.clients {
		if c == nil {
			continue
		}
		if _, ok := c.(StatefulClient); !ok {
			return fmt.Errorf("network: client at tile %d (%T) is not checkpointable", tile, c)
		}
	}
	return nil
}

// SaveCheckpoint serialises the complete simulation state into a snapshot
// whose resumed execution continues at the given cycle (the number of
// completed cycles at the snapshot instant). configHash guards against
// resuming under a different configuration.
func (n *Network) SaveCheckpoint(configHash uint64, cycle int64) ([]byte, error) {
	if err := n.checkpointable(); err != nil {
		return nil, err
	}
	b := checkpoint.NewBuilder(configHash, cycle)

	e := b.Section("net")
	e.U64(n.nextID)
	e.I64(n.rerouted)
	e.I64(n.unroutable)
	e.Bool(n.wdStarve != nil)
	if n.wdStarve != nil {
		e.I64s(n.wdStarve)
	}

	e = b.Section("routers")
	e.U32(uint32(len(n.routers)))
	for _, r := range n.routers {
		r.SaveState(e)
	}

	e = b.Section("links")
	e.U32(uint32(len(n.links)))
	for _, le := range n.links {
		le.l.SaveState(e)
	}

	e = b.Section("ports")
	e.U32(uint32(len(n.ports)))
	for _, p := range n.ports {
		p.saveState(e)
	}

	e = b.Section("recorder")
	n.recorder.saveState(e)

	e = b.Section("faultmap")
	n.faultMap.SaveState(e)

	e = b.Section("probe")
	n.probe.SaveState(e)

	e = b.Section("clients")
	e.U32(uint32(len(n.clients)))
	for _, c := range n.clients {
		e.Bool(c != nil)
		if c != nil {
			c.(StatefulClient).SaveState(e)
		}
	}

	for _, ex := range n.extras {
		ex.x.SaveState(b.Section("x:" + ex.name))
	}
	return b.Bytes(), nil
}

// Snapshot serialises the complete simulation state at the current cycle
// into an in-memory image: the checkpoint container (section CRCs ride
// along in the format) without the file write, fsync, or manifest.
// Campaigns sharing a deterministic warmup prefix take one Snapshot at
// the branch point and Fork it per branch.
func (n *Network) Snapshot(configHash uint64) ([]byte, error) {
	return n.SaveCheckpoint(configHash, int64(n.kernel.Now()))
}

// Fork restores a Snapshot image into this network, which must be
// freshly built from the same configuration with the same clients
// attached and the same extras registered. Execution continues
// from the image's cycle with every random stream where it was, so a
// forked run is byte-identical to one that never snapshotted until the
// caller diverges it (e.g. by reseeding its traffic generators).
func (n *Network) Fork(img []byte, configHash uint64) error {
	f, err := checkpoint.Parse(img)
	if err != nil {
		return err
	}
	if f.ConfigHash != configHash {
		return fmt.Errorf("network: fork config hash mismatch: image %016x, network %016x", f.ConfigHash, configHash)
	}
	return n.RestoreCheckpoint(f)
}

// section fetches and fully consumes one named section through fn.
func restoreSection(f *checkpoint.File, name string, fn func(d *checkpoint.Decoder)) error {
	d, err := f.Section(name)
	if err != nil {
		return err
	}
	fn(d)
	if err := d.Err(); err != nil {
		return fmt.Errorf("checkpoint: section %q: %w", name, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("checkpoint: section %q: %w", name, err)
	}
	return nil
}

// RestoreCheckpoint restores a snapshot produced by SaveCheckpoint into
// this network, which must be freshly built from the same configuration
// with the same clients attached and the same extras registered. On error
// the network is left in an undefined state and must be discarded.
func (n *Network) RestoreCheckpoint(f *checkpoint.File) error {
	if err := n.checkpointable(); err != nil {
		return err
	}
	if err := restoreSection(f, "net", func(d *checkpoint.Decoder) {
		n.nextID = d.U64()
		n.rerouted = d.I64()
		n.unroutable = d.I64()
		hasWD := d.Bool()
		if hasWD != (n.wdStarve != nil) {
			d.Fail("watchdog presence mismatch: checkpoint %v, network %v", hasWD, n.wdStarve != nil)
			return
		}
		if n.wdStarve != nil {
			starve := d.I64s()
			if len(starve) != len(n.wdStarve) {
				if d.Err() == nil {
					d.Fail("watchdog counter count mismatch: checkpoint %d, network %d", len(starve), len(n.wdStarve))
				}
				return
			}
			copy(n.wdStarve, starve)
		}
	}); err != nil {
		return err
	}
	if err := restoreSection(f, "routers", func(d *checkpoint.Decoder) {
		if nr := d.Count(1); nr != len(n.routers) {
			if d.Err() == nil {
				d.Fail("router count mismatch: checkpoint %d, network %d", nr, len(n.routers))
			}
			return
		}
		for _, r := range n.routers {
			r.RestoreState(d, r.Pool())
			if d.Err() != nil {
				return
			}
		}
	}); err != nil {
		return err
	}
	if err := restoreSection(f, "links", func(d *checkpoint.Decoder) {
		if nl := d.Count(1); nl != len(n.links) {
			if d.Err() == nil {
				d.Fail("link count mismatch: checkpoint %d, network %d", nl, len(n.links))
			}
			return
		}
		for _, le := range n.links {
			le.l.RestoreState(d, &n.shards[n.shardOf[le.to]].pool, n.cfg.Router.NumVCs)
			// A flit on a dead link is lost on delivery, unseen.
			if f := le.l.Wire(); f != nil && !le.l.Down() && d.Err() == nil {
				in := le.dir.Opposite()
				if msg := cmp.Or(n.refuses(f), n.orphaned(f, le.to, in), n.overflows(f, le.to, in)); msg != "" {
					d.Fail("link %d-%v: %s", le.from, le.dir, msg)
				}
			}
			if d.Err() == nil {
				if msg := n.creditExcess(&le); msg != "" {
					d.Fail("link %d-%v: %s", le.from, le.dir, msg)
				}
			}
			if d.Err() != nil {
				return
			}
		}
	}); err != nil {
		return err
	}
	if err := restoreSection(f, "ports", func(d *checkpoint.Decoder) {
		if np := d.Count(1); np != len(n.ports) {
			if d.Err() == nil {
				d.Fail("port count mismatch: checkpoint %d, network %d", np, len(n.ports))
			}
			return
		}
		for _, p := range n.ports {
			p.restoreState(d)
			if d.Err() != nil {
				return
			}
		}
	}); err != nil {
		return err
	}
	if err := restoreSection(f, "recorder", n.recorder.restoreState); err != nil {
		return err
	}
	if err := restoreSection(f, "faultmap", n.faultMap.RestoreState); err != nil {
		return err
	}
	if err := restoreSection(f, "probe", n.probe.RestoreState); err != nil {
		return err
	}
	if err := restoreSection(f, "clients", func(d *checkpoint.Decoder) {
		if nc := d.Count(1); nc != len(n.clients) {
			if d.Err() == nil {
				d.Fail("client count mismatch: checkpoint %d, network %d", nc, len(n.clients))
			}
			return
		}
		for tile, c := range n.clients {
			present := d.Bool()
			if present != (c != nil) {
				d.Fail("client presence mismatch at tile %d: checkpoint %v, network %v", tile, present, c != nil)
				return
			}
			if c != nil {
				c.(StatefulClient).RestoreState(d)
				if d.Err() != nil {
					return
				}
			}
		}
	}); err != nil {
		return err
	}
	for _, ex := range n.extras {
		if err := restoreSection(f, "x:"+ex.name, ex.x.RestoreState); err != nil {
			return err
		}
	}
	n.kernel.RestoreClock(f.Cycle)
	// Rebuild the derived per-shard worklists from restored occupancy.
	for _, r := range n.routers {
		if r.Occupancy() > 0 {
			n.activate(r.ID())
		}
	}
	// Enlist every link restored with flits or credits still in flight.
	for i := range n.links {
		if !n.links[i].l.Idle() {
			n.activateLink(int32(i))
		}
	}
	n.NoteCheckpoint(f.Cycle)
	for _, fn := range n.onRestore {
		fn()
	}
	return nil
}

// refuses describes why this network's routers would panic on flit f,
// restored on a wire or in an injection queue, or returns "" (also for
// nil): drop and deflection routers take single-flit packets only.
func (n *Network) refuses(f *flit.Flit) string {
	if f == nil || n.cfg.Router.Mode == router.ModeVC || f.Type == flit.HeadTail {
		return ""
	}
	return fmt.Sprintf("packet %d's %v flit under single-flit flow control", f.PacketID, f.Type)
}

// orphaned describes why a VC router at tile would panic on flit f at its
// input from, restored on a live wire or at an active injection's cursor,
// or returns "": a body or tail flit's VC must be carrying its packet.
func (n *Network) orphaned(f *flit.Flit, tile int, from route.Dir) string {
	if n.cfg.Router.Mode != router.ModeVC || f.Type.IsHead() ||
		(f.VC >= 0 && f.VC < n.cfg.Router.NumVCs && n.routers[tile].CarriesPacket(from, f.VC, f.PacketID)) {
		return ""
	}
	return fmt.Sprintf("packet %d's %v flit arrives at input %v VC %d, which is not carrying that packet", f.PacketID, f.Type, from, f.VC)
}

// overflows describes why a VC router at tile would panic on flit f,
// restored on a live credit link, at its input from, or returns "": the
// flit's input VC must have a free slot, as the credit it was sent on
// promised. An elastic link holds its flit until the VC has room.
func (n *Network) overflows(f *flit.Flit, tile int, from route.Dir) string {
	rc := n.cfg.Router
	if rc.Mode != router.ModeVC || rc.ElasticLinks || n.routers[tile].CanAccept(from, f.VC) {
		return ""
	}
	return fmt.Sprintf("packet %d's %v flit arrives at input %v VC %d, which already holds %d flits", f.PacketID, f.Type, from, f.VC, rc.BufFlits)
}

// creditExcess describes why the credit loop of a live credit link would
// overflow its receiver, or returns "": on every VC, the sender's credits
// plus the flits they cover (staged for the link, on its wire, buffered
// downstream) plus the credits coming back may not exceed the buffer
// depth. Fault losses only lower that sum. Reserved-VC flits bypass the
// credit loop, so that VC is not counted.
func (n *Network) creditExcess(le *linkEntry) string {
	rc := n.cfg.Router
	if rc.Mode != router.ModeVC || rc.ElasticLinks || le.l.Down() {
		return ""
	}
	from, to, in := n.routers[le.from], n.routers[le.to], le.dir.Opposite()
	for vc := 0; vc < rc.NumVCs; vc++ {
		if vc == rc.ReservedVC {
			continue
		}
		credits, staged := from.CreditCount(le.dir, vc), from.StagedFor(le.dir, vc)
		wire := 0
		if f := le.l.Wire(); f != nil && f.VC == vc {
			wire = 1
		}
		buffered, back := to.Buffered(in, vc), le.l.CreditsFor(vc)
		if sum := credits + staged + wire + buffered + back; sum > rc.BufFlits {
			return fmt.Sprintf("VC %d counts %d credits and flits against a %d-flit buffer (%d credits held, %d flits staged, %d on the wire, %d buffered, %d credits returning)",
				vc, sum, rc.BufFlits, credits, staged, wire, buffered, back)
		}
	}
	return ""
}

// --- port state -------------------------------------------------------------

func (p *Port) saveInjection(e *checkpoint.Encoder, in *injection) {
	flit.SaveFlits(e, in.flits)
	e.Int(in.next)
	e.Int(in.vc)
	e.Int(in.class)
	e.U64(in.seq)
	e.I64(in.inject)
}

func (p *Port) restoreInjection(d *checkpoint.Decoder) *injection {
	in := p.getInjection()
	in.flits = flit.RestoreFlits(d, in.flits[:0], p.pool)
	in.next = d.Int()
	in.vc = d.Int()
	in.class = d.Int()
	in.seq = d.U64()
	in.inject = d.I64()
	if in.next < 0 || in.next > len(in.flits) {
		d.Fail("injection cursor %d out of range [0, %d]", in.next, len(in.flits))
	}
	for _, f := range in.flits {
		if msg := p.net.refuses(f); msg != "" {
			d.Fail("tile %d: queued %s", p.tile, msg)
			break
		}
	}
	if d.Err() != nil {
		p.putInjection(in)
		return nil
	}
	return in
}

func saveDelivery(e *checkpoint.Encoder, del *Delivery) {
	e.U64(del.PacketID)
	e.Int(del.Src)
	e.Int(del.Dst)
	e.Bytes(del.Payload)
	e.Int(del.Class)
	e.Int(del.Flow)
	e.I64(del.Birth)
	e.I64(del.Arrived)
	e.Int(del.Flits)
}

func (p *Port) restoreDelivery(d *checkpoint.Decoder) *Delivery {
	del := p.getDelivery()
	del.PacketID = d.U64()
	del.Src = d.Int()
	del.Dst = d.Int()
	del.Payload = append(del.Payload[:0], d.Bytes()...)
	del.Class = d.Int()
	del.Flow = d.Int()
	del.Birth = d.I64()
	del.Arrived = d.I64()
	del.Flits = d.Int()
	if d.Err() != nil {
		p.putDelivery(del)
		return nil
	}
	return del
}

// saveState serialises the port's dynamic state: queued and in-progress
// injections, reassembly partials, undelivered receptions, pending
// loopbacks, the schedule-violation counter and the traffic counters.
// The delivery and injection free lists are allocation caches, not state.
func (p *Port) saveState(e *checkpoint.Encoder) {
	e.U32(uint32(len(p.pending)))
	for _, in := range p.pending {
		p.saveInjection(e, in)
	}
	e.U32(uint32(len(p.reserved)))
	for _, in := range p.reserved {
		p.saveInjection(e, in)
	}
	for _, in := range p.active {
		e.Bool(in != nil)
		if in != nil {
			p.saveInjection(e, in)
		}
	}
	live := 0
	for i := range p.partials {
		if p.partials[i].id != 0 {
			live++
		}
	}
	e.U32(uint32(live))
	for i := range p.partials {
		if s := &p.partials[i]; s.id != 0 {
			e.U64(s.id)
			flit.SaveFlits(e, s.flits)
		}
	}
	e.U32(uint32(len(p.rx)))
	for _, del := range p.rx {
		saveDelivery(e, del)
	}
	e.U32(uint32(len(p.loopback)))
	for i, del := range p.loopback {
		saveDelivery(e, del)
		e.I64(p.loopAt[i])
	}
	e.I64(p.BlockedReserved)
	e.I64(p.InjectedFlits)
	e.I64(p.DeliveredFlits)
	e.I64(p.DeliveredPackets)
	e.I64(p.AbortedPackets)
}

// restoreState restores a port saved with saveState. The port must belong
// to a freshly built network (all queues empty).
func (p *Port) restoreState(d *checkpoint.Decoder) {
	np := d.Count(8)
	p.pending = p.pending[:0]
	for i := 0; i < np; i++ {
		if in := p.restoreInjection(d); in != nil {
			p.pending = append(p.pending, in)
		}
	}
	nr := d.Count(8)
	p.reserved = p.reserved[:0]
	for i := 0; i < nr; i++ {
		if in := p.restoreInjection(d); in != nil {
			p.reserved = append(p.reserved, in)
		}
	}
	for v := range p.active {
		p.active[v] = nil
		if d.Bool() {
			p.active[v] = p.restoreInjection(d)
		}
		if in := p.active[v]; in != nil && !in.done() {
			if msg := p.net.orphaned(in.flits[in.next], p.tile, route.Local); msg != "" {
				d.Fail("tile %d: injection cursor: %s", p.tile, msg)
			}
		}
	}
	nPart := d.Count(8)
	p.partials = p.partials[:0]
	for i := 0; i < nPart; i++ {
		id := d.U64()
		flits := flit.RestoreFlits(d, nil, p.pool)
		if d.Err() != nil {
			for _, f := range flits {
				p.pool.Put(f)
			}
			return
		}
		p.partials = append(p.partials, partialSlot{id: id, flits: flits})
	}
	nRx := d.Count(8)
	p.rx = p.rx[:0]
	for i := 0; i < nRx; i++ {
		if del := p.restoreDelivery(d); del != nil {
			p.rx = append(p.rx, del)
		}
	}
	nLoop := d.Count(8)
	p.loopback = p.loopback[:0]
	p.loopAt = p.loopAt[:0]
	for i := 0; i < nLoop; i++ {
		del := p.restoreDelivery(d)
		at := d.I64()
		if del != nil {
			p.loopback = append(p.loopback, del)
			p.loopAt = append(p.loopAt, at)
		}
	}
	p.BlockedReserved = d.I64()
	p.InjectedFlits = d.I64()
	p.DeliveredFlits = d.I64()
	p.DeliveredPackets = d.I64()
	p.AbortedPackets = d.I64()
	// Rebuild the derived injection-side worklist state (port.go): the
	// restored port stands in for a freshly built one whose lists were empty.
	p.activeCount = 0
	for _, in := range p.active {
		if in != nil {
			p.activeCount++
		}
	}
	if p.injWork() > 0 {
		p.notePump()
	}
	if len(p.loopback) > 0 {
		p.noteLoopback()
	}
}

// --- recorder state ---------------------------------------------------------

func (r *Recorder) saveState(e *checkpoint.Encoder) {
	e.I64(r.WarmupCycles)
	e.I64(r.MeasureUntil)
	e.I64(r.WindowFlits)
	r.PacketLatency.SaveState(e)
	r.NetworkLatency.SaveState(e)
	e.I64(r.Generated)
	e.I64(r.InjectedPackets)
	e.I64(r.DeliveredPackets)
	e.I64(r.DeliveredFlits)
	e.I64(r.measuredFlits)
	e.I64(r.measureFrom)
	classes := r.Classes()
	e.U32(uint32(len(classes)))
	for _, c := range classes {
		e.Int(c)
		r.perClass[c].SaveState(e)
	}
	flows := make([]int, 0, len(r.perFlow))
	for fl := range r.perFlow {
		flows = append(flows, fl)
	}
	sort.Ints(flows)
	e.U32(uint32(len(flows)))
	for _, fl := range flows {
		ft := r.perFlow[fl]
		e.Int(fl)
		ft.latency.SaveState(e)
		ft.interArr.SaveState(e)
		e.I64(ft.lastCycle)
		e.I64(ft.count)
	}
}

func (r *Recorder) restoreState(d *checkpoint.Decoder) {
	r.WarmupCycles = d.I64()
	r.MeasureUntil = d.I64()
	r.WindowFlits = d.I64()
	r.PacketLatency.RestoreState(d)
	r.NetworkLatency.RestoreState(d)
	r.Generated = d.I64()
	r.InjectedPackets = d.I64()
	r.DeliveredPackets = d.I64()
	r.DeliveredFlits = d.I64()
	r.measuredFlits = d.I64()
	r.measureFrom = d.I64()
	nc := d.Count(8)
	r.perClass = make(map[int]*stats.Hist, nc)
	for i := 0; i < nc; i++ {
		c := d.Int()
		h := stats.NewHist(4096)
		h.RestoreState(d)
		if d.Err() != nil {
			return
		}
		r.perClass[c] = h
	}
	nf := d.Count(8)
	r.perFlow = make(map[int]*flowTrace, nf)
	for i := 0; i < nf; i++ {
		fl := d.Int()
		ft := &flowTrace{latency: stats.NewHist(1024), interArr: stats.NewHist(1024)}
		ft.latency.RestoreState(d)
		ft.interArr.RestoreState(d)
		ft.lastCycle = d.I64()
		ft.count = d.I64()
		if d.Err() != nil {
			return
		}
		r.perFlow[fl] = ft
	}
}
