package stats

import "repro/internal/checkpoint"

// The measurement primitives keep their accumulators unexported, so their
// checkpoint serialisation lives here, in-package. Each SaveState/
// RestoreState pair writes every field that influences any exported
// figure; restore errors surface through the decoder's sticky error.

// SaveState serialises the summary.
func (s *Summary) SaveState(e *checkpoint.Encoder) {
	e.I64(s.n)
	e.F64(s.mean)
	e.F64(s.m2)
	e.F64(s.min)
	e.F64(s.max)
}

// RestoreState restores a summary saved with SaveState.
func (s *Summary) RestoreState(d *checkpoint.Decoder) {
	s.n = d.I64()
	s.mean = d.F64()
	s.m2 = d.F64()
	s.min = d.F64()
	s.max = d.F64()
}

// SaveState serialises the histogram, including its bucket bound so the
// restored histogram bins identically.
func (h *Hist) SaveState(e *checkpoint.Encoder) {
	e.I64s(h.buckets)
	e.I64s(h.overflow)
	e.I64(h.n)
	e.I64(h.sum)
}

// RestoreState restores a histogram saved with SaveState, replacing the
// receiver's buckets (and hence its bound).
func (h *Hist) RestoreState(d *checkpoint.Decoder) {
	h.buckets = d.I64s()
	h.overflow = d.I64s()
	h.n = d.I64()
	h.sum = d.I64()
}
