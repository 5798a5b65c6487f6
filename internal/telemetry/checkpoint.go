package telemetry

import "repro/internal/checkpoint"

// SaveState serialises what only the probe counts: each router record's
// stall taxonomy, reservation counts and occupancy samples, each link
// record's dead-link stamp, the sampled series, the shared tracer, and
// the roll-up figures. The router, port and link counters the records
// read belong to those components' own checkpoint sections. Probe
// topology (router/link registry, config) is not saved — the restored
// probe must come from a network built with the same configuration. A
// nil probe saves a single absence flag so the section layout is stable
// either way.
func (p *Probe) SaveState(e *checkpoint.Encoder) {
	e.Bool(p != nil)
	if p == nil {
		return
	}
	e.U32(uint32(len(p.Routers)))
	for _, rp := range p.Routers {
		e.I64(rp.ArbLosses)
		e.I64(rp.CreditStalls)
		e.I64(rp.StageStalls)
		e.I64(rp.ResHits)
		e.I64(rp.ResMisses)
		e.I64s(rp.VCOccSum)
		e.I64(rp.Samples)
	}
	e.U32(uint32(len(p.Links)))
	for _, lp := range p.Links {
		e.I64(lp.DeadAt)
	}
	e.U32(uint32(len(p.Series)))
	for _, row := range p.Series {
		e.I64(row.Cycle)
		e.I64(row.BufOcc)
		e.I64(row.LinkInFlight)
		e.I64(row.LinkFlits)
		e.I64(row.SwitchMoves)
		e.I64(row.ArbLosses)
		e.I64(row.CreditStalls)
		e.I64(row.ResHits)
		e.I64(row.Delivered)
	}
	e.Int(p.DeadLinks)
	e.I64(p.FaultsApplied)
	e.I64(p.RetryRetransmits)
	e.I64(p.RetryTimeouts)
	e.I64(p.RetryCorrupt)
	e.Bool(p.tracer != nil)
	if p.tracer != nil {
		p.tracer.SaveState(e)
	}
}

// RestoreState restores a probe saved with SaveState into a probe
// populated by a network built from the same configuration.
func (p *Probe) RestoreState(d *checkpoint.Decoder) {
	present := d.Bool()
	if present != (p != nil) {
		d.Fail("probe presence mismatch: checkpoint %v, network %v", present, p != nil)
		return
	}
	if p == nil {
		return
	}
	nr := d.Count(16)
	if nr != len(p.Routers) {
		if d.Err() == nil {
			d.Fail("probe router count mismatch: checkpoint %d, network %d", nr, len(p.Routers))
		}
		return
	}
	for _, rp := range p.Routers {
		rp.ArbLosses = d.I64()
		rp.CreditStalls = d.I64()
		rp.StageStalls = d.I64()
		rp.ResHits = d.I64()
		rp.ResMisses = d.I64()
		occ := d.I64s()
		if len(occ) == len(rp.VCOccSum) {
			copy(rp.VCOccSum, occ)
		} else if d.Err() == nil {
			d.Fail("probe VC occupancy width mismatch: checkpoint %d, network %d", len(occ), len(rp.VCOccSum))
			return
		}
		rp.Samples = d.I64()
	}
	nl := d.Count(8)
	if nl != len(p.Links) {
		if d.Err() == nil {
			d.Fail("probe link count mismatch: checkpoint %d, network %d", nl, len(p.Links))
		}
		return
	}
	for _, lp := range p.Links {
		lp.DeadAt = d.I64()
	}
	ns := d.Count(16)
	p.Series = p.Series[:0]
	for i := 0; i < ns; i++ {
		var row SeriesRow
		row.Cycle = d.I64()
		row.BufOcc = d.I64()
		row.LinkInFlight = d.I64()
		row.LinkFlits = d.I64()
		row.SwitchMoves = d.I64()
		row.ArbLosses = d.I64()
		row.CreditStalls = d.I64()
		row.ResHits = d.I64()
		row.Delivered = d.I64()
		if d.Err() != nil {
			return
		}
		p.Series = append(p.Series, row)
	}
	p.DeadLinks = d.Int()
	p.FaultsApplied = d.I64()
	p.RetryRetransmits = d.I64()
	p.RetryTimeouts = d.I64()
	p.RetryCorrupt = d.I64()
	hasTracer := d.Bool()
	if hasTracer != (p.tracer != nil) {
		d.Fail("tracer presence mismatch: checkpoint %v, network %v", hasTracer, p.tracer != nil)
		return
	}
	if p.tracer != nil {
		p.tracer.RestoreState(d)
	}
}

// SaveState serialises the tracer's event log and drop count. The buffer
// bound is configuration.
func (t *Tracer) SaveState(e *checkpoint.Encoder) {
	e.U32(uint32(len(t.events)))
	for _, ev := range t.events {
		e.I64(ev.Cycle)
		e.U64(ev.Pkt)
		e.U8(uint8(ev.Kind))
		e.U32(uint32(ev.A))
		e.U32(uint32(ev.B))
	}
	e.I64(t.dropped)
}

// RestoreState restores a tracer saved with SaveState.
func (t *Tracer) RestoreState(d *checkpoint.Decoder) {
	n := d.Count(22)
	t.events = t.events[:0]
	for i := 0; i < n; i++ {
		var ev Event
		ev.Cycle = d.I64()
		ev.Pkt = d.U64()
		ev.Kind = EventKind(d.U8())
		ev.A = int32(d.U32())
		ev.B = int32(d.U32())
		if d.Err() != nil {
			return
		}
		t.events = append(t.events, ev)
	}
	t.dropped = d.I64()
}
