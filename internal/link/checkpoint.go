package link

import (
	"repro/internal/checkpoint"
	"repro/internal/flit"
)

// SaveState serialises the link's dynamic state: the flit and credit
// registers, the serdes busy countdown, busy cycles, active bits, the
// flit, head-flit and credit counts, the pending-credit queue, fault
// status, and the physical wire layer's state. Configuration (serdes
// width, wire counts) is not saved — the restored link must be built
// from the same config; the elastic flag and the wire layer's presence
// are saved only to check that.
func (l *Link) SaveState(e *checkpoint.Encoder) {
	e.Bool(l.wire != nil)
	if l.wire != nil {
		l.wire.SaveState(e)
	}
	e.Int(l.creditWire)
	e.Int(l.busy)
	e.I64(l.BusyCycles)
	e.I64(l.ActiveBits)
	e.I64(l.Flits)
	e.I64(l.HeadFlits)
	e.I64(l.Credits)
	pending := l.pendingCredits[l.creditHead:]
	e.U32(uint32(len(pending)))
	for _, vc := range pending {
		e.Int(vc)
	}
	e.Bool(l.elastic)
	e.Bool(l.down)
	e.I64(l.FaultLostFlits)
	e.I64(l.FaultLostCredits)
	e.Bool(l.Phys != nil)
	if l.Phys != nil {
		l.Phys.saveState(e)
	}
}

// RestoreState restores a link saved with SaveState into a link built
// from the same configuration, for a receiver with numVCs virtual
// channels. In-flight flits are drawn from pool. A flit or credit naming
// a VC outside [0, numVCs) fails the decoder, since the routers at either
// end index their VCs by it, as do credits on an elastic channel and a
// busy countdown outside [0, SerdesCycles], either of which would keep
// the link from ever going idle.
func (l *Link) RestoreState(d *checkpoint.Decoder, pool *flit.Pool, numVCs int) {
	l.wire = nil
	if d.Bool() {
		l.wire = flit.RestoreFlit(d, pool)
	}
	l.creditWire = d.Int()
	l.busy = d.Int()
	l.BusyCycles = d.I64()
	l.ActiveBits = d.I64()
	l.Flits = d.I64()
	l.HeadFlits = d.I64()
	l.Credits = d.I64()
	nPending := d.Count(8)
	l.pendingCredits = l.pendingCredits[:0]
	l.creditHead = 0
	for i := 0; i < nPending; i++ {
		l.pendingCredits = append(l.pendingCredits, d.Int())
	}
	if elastic := d.Bool(); elastic != l.elastic {
		d.Fail("elastic mismatch: checkpoint %v, link %v", elastic, l.elastic)
	}
	l.down = d.Bool()
	l.FaultLostFlits = d.I64()
	l.FaultLostCredits = d.I64()
	if phys := d.Bool(); phys != (l.Phys != nil) {
		d.Fail("link %d-%v: physical wire layer mismatch: checkpoint %v, link %v", l.From, l.Dir, phys, l.Phys != nil)
	} else if phys {
		l.Phys.restoreState(d, l)
	}
	if d.Err() != nil {
		return
	}
	if l.wire != nil && (l.wire.VC < 0 || l.wire.VC >= numVCs) {
		d.Fail("link %d-%v: flit on the wire names VC %d, outside [0, %d)", l.From, l.Dir, l.wire.VC, numVCs)
	}
	if l.creditWire < 0 || l.creditWire > numVCs {
		d.Fail("link %d-%v: credit on the wire names VC %d, outside [0, %d)", l.From, l.Dir, l.creditWire-1, numVCs)
	}
	for _, vc := range l.pendingCredits {
		if vc < 0 || vc >= numVCs {
			d.Fail("link %d-%v: queued credit names VC %d, outside [0, %d)", l.From, l.Dir, vc, numVCs)
		}
	}
	if l.elastic && (l.creditWire != 0 || len(l.pendingCredits) != 0) {
		d.Fail("link %d-%v: elastic channel carries credits", l.From, l.Dir)
	}
	if l.busy < 0 || l.busy > l.SerdesCycles {
		d.Fail("link %d-%v: busy countdown %d outside [0, %d]", l.From, l.Dir, l.busy, l.SerdesCycles)
	}
}

// saveState serialises the wire layer's state: the dead wires, the
// steering (shift point or lane map), the transient probability, the ECC
// flag, the counters and the transient-flip stream. The wire counts are
// configuration.
func (p *Phys) saveState(e *checkpoint.Encoder) {
	e.U32(uint32(len(p.deadWires)))
	for _, w := range p.deadWires {
		e.Int(w)
	}
	e.Int(p.steerAt)
	e.Bool(p.laneMap != nil)
	if p.laneMap != nil {
		e.U32(uint32(len(p.laneMap)))
		for _, w := range p.laneMap {
			e.Int(w)
		}
	}
	e.F64(p.TransientProb)
	e.Bool(p.ECC)
	e.I64(p.Traversals)
	e.I64(p.BitErrors)
	e.I64(p.CorrectedFlits)
	e.I64(p.DetectedFlits)
	e.Bool(p.rng != nil)
	if p.rng != nil {
		p.rng.SaveState(e)
	}
}

// restoreState restores a wire layer saved with saveState into one built
// with the same wire counts. A wire index outside the bundle, a shift
// point the spares cannot cover, or a lane map of the wrong length fails
// the decoder: Traverse indexes the lane map by lane and shifts lanes
// past the last data wire.
func (p *Phys) restoreState(d *checkpoint.Decoder, l *Link) {
	wires := p.DataWires + p.SpareWires
	p.deadWires = p.deadWires[:0]
	for i, n := 0, d.Count(8); i < n; i++ {
		w := d.Int()
		if w < 0 || w >= wires {
			d.Fail("link %d-%v: dead wire %d outside [0, %d)", l.From, l.Dir, w, wires)
			return
		}
		p.deadWires = append(p.deadWires, w)
	}
	p.steerAt = d.Int()
	if p.steerAt < -1 || p.steerAt >= wires || p.steerAt >= 0 && p.SpareWires < 1 {
		d.Fail("link %d-%v: steering shift at wire %d, with %d of %d wires spare", l.From, l.Dir, p.steerAt, p.SpareWires, wires)
		return
	}
	p.laneMap = nil
	if d.Bool() {
		n := d.Count(8)
		if n != p.DataWires {
			if d.Err() == nil {
				d.Fail("link %d-%v: lane map of %d lanes, want %d", l.From, l.Dir, n, p.DataWires)
			}
			return
		}
		p.laneMap = make([]int, n)
		for i := range p.laneMap {
			p.laneMap[i] = d.Int()
		}
	}
	p.TransientProb = d.F64()
	p.ECC = d.Bool()
	p.Traversals = d.I64()
	p.BitErrors = d.I64()
	p.CorrectedFlits = d.I64()
	p.DetectedFlits = d.I64()
	if stream := d.Bool(); stream != (p.rng != nil) {
		d.Fail("link %d-%v: wire stream mismatch: checkpoint %v, link %v", l.From, l.Dir, stream, p.rng != nil)
	} else if stream {
		p.rng.RestoreState(d)
	}
}
