package link

import (
	"repro/internal/checkpoint"
	"repro/internal/flit"
)

// SaveState serialises the link's dynamic state: the flit and credit
// registers, the serdes busy countdown, busy cycles, active bits, the
// pending-credit queue, and fault status. Configuration (serdes width,
// physical layer) is not saved — the restored link must be built from
// the same config; the elastic flag is saved only to check that.
func (l *Link) SaveState(e *checkpoint.Encoder) {
	e.Bool(l.wire != nil)
	if l.wire != nil {
		l.wire.SaveState(e)
	}
	e.Int(l.creditWire)
	e.Int(l.busy)
	e.I64(l.BusyCycles)
	e.I64(l.ActiveBits)
	pending := l.pendingCredits[l.creditHead:]
	e.U32(uint32(len(pending)))
	for _, vc := range pending {
		e.Int(vc)
	}
	e.Bool(l.elastic)
	e.Bool(l.down)
	e.I64(l.FaultLostFlits)
	e.I64(l.FaultLostCredits)
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
