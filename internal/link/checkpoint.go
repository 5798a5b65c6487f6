package link

import (
	"repro/internal/checkpoint"
	"repro/internal/flit"
)

// savePipeFlits serialises a flit pipe positionally: one full/value pair
// per slot, so the restored pipe's traversal timing is exact.
func savePipeFlits(e *checkpoint.Encoder, p *Pipe[*flit.Flit]) {
	e.U32(uint32(len(p.slots)))
	for _, s := range p.slots {
		e.Bool(s.full)
		if s.full {
			s.v.SaveState(e)
		}
	}
}

func restorePipeFlits(d *checkpoint.Decoder, p *Pipe[*flit.Flit], pool *flit.Pool) {
	n := d.Count(1)
	if n != len(p.slots) {
		if d.Err() == nil {
			d.Fail("pipe depth mismatch: checkpoint has %d slots, link has %d", n, len(p.slots))
		}
		return
	}
	p.count = 0
	for i := range p.slots {
		p.slots[i] = slot[*flit.Flit]{}
		if d.Bool() {
			if f := flit.RestoreFlit(d, pool); f != nil {
				p.slots[i] = slot[*flit.Flit]{v: f, full: true}
				p.count++
			}
		}
	}
}

func savePipeInts(e *checkpoint.Encoder, p *Pipe[int]) {
	e.U32(uint32(len(p.slots)))
	for _, s := range p.slots {
		e.Bool(s.full)
		if s.full {
			e.Int(s.v)
		}
	}
}

func restorePipeInts(d *checkpoint.Decoder, p *Pipe[int]) {
	n := d.Count(1)
	if n != len(p.slots) {
		if d.Err() == nil {
			d.Fail("credit pipe depth mismatch: checkpoint has %d slots, link has %d", n, len(p.slots))
		}
		return
	}
	p.count = 0
	for i := range p.slots {
		p.slots[i] = slot[int]{}
		if d.Bool() {
			p.slots[i] = slot[int]{v: d.Int(), full: true}
			p.count++
		}
	}
}

// SaveState serialises the link's dynamic state: both pipes, the serdes
// busy countdown, the pending-credit queue, elastic stages, busy cycles,
// active bits, and fault status. Configuration (latency, serdes width,
// physical layer) is not saved — the restored link must be built from
// the same config.
func (l *Link) SaveState(e *checkpoint.Encoder) {
	savePipeFlits(e, &l.pipe)
	savePipeInts(e, &l.credits)
	e.Int(l.busy)
	e.I64(l.BusyCycles)
	e.I64(l.ActiveBits)
	pending := l.pendingCredits[l.creditHead:]
	e.U32(uint32(len(pending)))
	for _, vc := range pending {
		e.Int(vc)
	}
	e.Bool(l.elastic)
	if l.elastic {
		e.U32(uint32(len(l.stages)))
		for _, f := range l.stages {
			e.Bool(f != nil)
			if f != nil {
				f.SaveState(e)
			}
		}
	}
	e.Bool(l.down)
	e.I64(l.FaultLostFlits)
	e.I64(l.FaultLostCredits)
}

// RestoreState restores a link saved with SaveState into a link built
// from the same configuration. In-flight flits are drawn from pool.
func (l *Link) RestoreState(d *checkpoint.Decoder, pool *flit.Pool) {
	restorePipeFlits(d, &l.pipe, pool)
	restorePipeInts(d, &l.credits)
	l.busy = d.Int()
	l.BusyCycles = d.I64()
	l.ActiveBits = d.I64()
	nPending := d.Count(8)
	l.pendingCredits = l.pendingCredits[:0]
	l.creditHead = 0
	for i := 0; i < nPending; i++ {
		l.pendingCredits = append(l.pendingCredits, d.Int())
	}
	elastic := d.Bool()
	if elastic != l.elastic {
		d.Fail("elastic mismatch: checkpoint %v, link %v", elastic, l.elastic)
		return
	}
	if l.elastic {
		n := d.Count(1)
		if n != len(l.stages) {
			if d.Err() == nil {
				d.Fail("elastic stage count mismatch: checkpoint %d, link %d", n, len(l.stages))
			}
			return
		}
		for i := range l.stages {
			l.stages[i] = nil
			if d.Bool() {
				l.stages[i] = flit.RestoreFlit(d, pool)
			}
		}
	}
	l.down = d.Bool()
	l.FaultLostFlits = d.I64()
	l.FaultLostCredits = d.I64()
}
