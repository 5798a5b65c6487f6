package telemetry

// This file is the copy layer under the live observability service
// (internal/telemetry/serve): plain-data snapshot structs mirroring the
// probe's counters, built by value-copying inside the simulator's serial
// snapshot phase so HTTP readers never touch live state. Everything here
// is deterministic — slices ordered by component index, no maps — because
// the serve layer's determinism contract is that the published snapshot
// bytes are identical for any shard count.

// RouterSnap is the JSON-ready copy of one RouterProbe.
type RouterSnap struct {
	ID               int     `json:"id"`
	Routed           int64   `json:"routed"`
	SwitchMoves      int64   `json:"switch_moves"`
	BypassMoves      int64   `json:"bypass_moves"`
	ArbLosses        int64   `json:"arb_losses"`
	CreditStalls     int64   `json:"credit_stalls"`
	StageStalls      int64   `json:"stage_stalls"`
	ResHits          int64   `json:"res_hits"`
	ResMisses        int64   `json:"res_misses"`
	InjectedFlits    int64   `json:"injected_flits"`
	EjectedFlits     int64   `json:"ejected_flits"`
	DeliveredFlits   int64   `json:"delivered_flits"`
	DeliveredPackets int64   `json:"delivered_packets"`
	AbortedPackets   int64   `json:"aborted_packets"`
	MeanBufOcc       float64 `json:"mean_buf_occ"`
}

// LinkSnap is the JSON-ready copy of one LinkProbe, with the duty factor
// evaluated over an explicit horizon: the cycle of the snapshot it belongs
// to, which the caller passes, rather than the probe's clock (Elapsed).
type LinkSnap struct {
	Index     int     `json:"index"`
	From      int     `json:"from"`
	To        int     `json:"to"`
	Dir       string  `json:"dir"`
	Flits     int64   `json:"flits"`
	HeadFlits int64   `json:"head_flits"`
	Credits   int64   `json:"credits"`
	Util      float64 `json:"util"`
	OverUnity bool    `json:"over_unity,omitempty"`
	DeadAt    int64   `json:"dead_at"`
}

// SnapshotRouters copies every registered router probe into dst (reused
// when capacity allows), ordered by router id.
func (p *Probe) SnapshotRouters(dst []RouterSnap) []RouterSnap {
	dst = dst[:0]
	for _, rp := range p.Routers {
		if rp == nil {
			continue
		}
		dst = append(dst, RouterSnap{
			ID:               rp.ID,
			Routed:           rp.Routed,
			SwitchMoves:      rp.SwitchMoves,
			BypassMoves:      rp.BypassMoves,
			ArbLosses:        rp.ArbLosses,
			CreditStalls:     rp.CreditStalls,
			StageStalls:      rp.StageStalls,
			ResHits:          rp.ResHits,
			ResMisses:        rp.ResMisses,
			InjectedFlits:    rp.InjectedFlits,
			EjectedFlits:     rp.EjectedFlits,
			DeliveredFlits:   rp.DeliveredFlits,
			DeliveredPackets: rp.DeliveredPackets,
			AbortedPackets:   rp.AbortedPackets,
			MeanBufOcc:       rp.meanBufOcc(),
		})
	}
	return dst
}

// SnapshotLinks copies every registered link probe into dst, ordered by
// channel index, with utilization over the given horizon.
func (p *Probe) SnapshotLinks(dst []LinkSnap, cycles int64) []LinkSnap {
	dst = dst[:0]
	for _, lp := range p.Links {
		if lp == nil {
			continue
		}
		dst = append(dst, LinkSnap{
			Index:     lp.Index,
			From:      lp.From,
			To:        lp.To,
			Dir:       lp.Dir.String(),
			Flits:     lp.Flits,
			HeadFlits: lp.HeadFlits,
			Credits:   lp.Credits,
			Util:      lp.Util(cycles),
			OverUnity: lp.OverUnity(cycles),
			DeadAt:    lp.DeadAt,
		})
	}
	return dst
}

// rawUtil is the unclamped duty factor: flit-cycles on the wires over the
// horizon. Values above 1 are physically impossible and indicate a
// double-count accounting bug upstream.
func (lp *LinkProbe) rawUtil(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(lp.Flits*int64(lp.Serdes)) / float64(cycles)
}

// OverUnity reports whether the channel's unclamped duty factor exceeds
// 1.0 over the horizon — the condition Util silently clamps away. The
// clamp keeps reports sane; this predicate keeps the bug visible.
func (lp *LinkProbe) OverUnity(cycles int64) bool {
	return lp.rawUtil(cycles) > 1+1e-9
}

// OverUnityLinks counts channels whose duty factor had to be clamped at
// 1.0 over the horizon. Surfaced by /healthz and the text-table exporter:
// a non-zero count means flit accounting double-counted somewhere.
func (p *Probe) OverUnityLinks(cycles int64) int {
	n := 0
	for _, lp := range p.Links {
		if lp != nil && lp.OverUnity(cycles) {
			n++
		}
	}
	return n
}

// HeatmapGrid reports the k×k per-tile mean outgoing duty factor over the
// given horizon, row y=ky-1 first (matching the ASCII and CSV renderings).
// Nil when no grid was registered.
func (p *Probe) HeatmapGrid(cycles int64) [][]float64 {
	return p.AppendHeatmapGrid(nil, cycles)
}

// AppendHeatmapGrid is HeatmapGrid into a reused grid: dst's rows are
// kept when their width matches, so a steady-state sampler allocates
// nothing after the first call. Returns nil when no grid was registered.
func (p *Probe) AppendHeatmapGrid(dst [][]float64, cycles int64) [][]float64 {
	if p.kx == 0 || p.ky == 0 {
		return nil
	}
	cells := p.kx * p.ky
	if cap(p.heatSums) < cells {
		p.heatSums = make([]float64, cells)
		p.heatCounts = make([]int, cells)
	}
	sums, counts := p.heatSums[:cells], p.heatCounts[:cells]
	for i := range sums {
		sums[i], counts[i] = 0, 0
	}
	for _, lp := range p.Links {
		if lp == nil {
			continue
		}
		idx := lp.PY*p.kx + lp.PX
		sums[idx] += lp.Util(cycles)
		counts[idx]++
	}
	grid := dst[:0]
	for y := p.ky - 1; y >= 0; y-- {
		var row []float64
		if n := len(grid); n < cap(grid) {
			row = grid[:n+1][n]
		}
		if len(row) != p.kx {
			row = make([]float64, p.kx)
		}
		for x := 0; x < p.kx; x++ {
			row[x] = 0
			if c := counts[y*p.kx+x]; c > 0 {
				row[x] = sums[y*p.kx+x] / float64(c)
			}
		}
		grid = append(grid, row)
	}
	return grid
}

// SnapshotSeriesTail copies the last max series rows into dst.
func (p *Probe) SnapshotSeriesTail(dst []SeriesRow, max int) []SeriesRow {
	dst = dst[:0]
	rows := p.Series
	if max > 0 && len(rows) > max {
		rows = rows[len(rows)-max:]
	}
	return append(dst, rows...)
}
