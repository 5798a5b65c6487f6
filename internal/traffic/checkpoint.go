package traffic

import "repro/internal/checkpoint"

// SaveState serialises the generator's dynamic state: its random stream
// and the packet count. Configuration (pattern, rate, mask) is not saved
// — the restored generator must be built with the same parameters.
func (g *Generator) SaveState(e *checkpoint.Encoder) {
	g.rng.SaveState(e)
	e.I64(g.GeneratedPackets)
}

// RestoreState restores a generator saved with SaveState.
func (g *Generator) RestoreState(d *checkpoint.Decoder) {
	g.rng.RestoreState(d)
	g.GeneratedPackets = d.I64()
}

// SaveState serialises the stream source's dynamic state. The emission
// schedule is a pure function of the cycle number, so only the count is
// dynamic.
func (s *StreamSource) SaveState(e *checkpoint.Encoder) {
	e.I64(s.Sent)
}

// RestoreState restores a stream source saved with SaveState.
func (s *StreamSource) RestoreState(d *checkpoint.Decoder) {
	s.Sent = d.I64()
}

// SaveState serialises the trace replay cursor and packet count. The
// event list itself is configuration.
func (t *TraceSource) SaveState(e *checkpoint.Encoder) {
	e.Int(t.next)
	e.I64(t.Sent)
}

// RestoreState restores a trace source saved with SaveState.
func (t *TraceSource) RestoreState(d *checkpoint.Decoder) {
	t.next = d.Int()
	if t.next < 0 || t.next > len(t.Events) {
		d.Fail("trace cursor %d out of range [0, %d]", t.next, len(t.Events))
		t.next = 0
	}
	t.Sent = d.I64()
}
