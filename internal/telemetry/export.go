package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteMetricsCSV writes every counter and the sampled series as CSV: a
// per-router table, a per-link table, and the time series, separated by
// comment headers. Rates use the probe's horizon, Elapsed: the simulation
// clock when the CSV is written.
func (p *Probe) WriteMetricsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "# routers"); err != nil {
		return err
	}
	fmt.Fprintln(w, "router,routed,switch_moves,bypass_moves,arb_losses,credit_stalls,stage_stalls,res_hits,res_misses,injected_flits,ejected_flits,delivered_flits,delivered_packets,aborted_packets,mean_buf_occ")
	for _, rp := range p.Routers {
		if rp == nil {
			continue
		}
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f\n",
			rp.ID, rp.Routed, rp.SwitchMoves, rp.BypassMoves,
			rp.ArbLosses, rp.CreditStalls, rp.StageStalls,
			rp.ResHits, rp.ResMisses,
			rp.InjectedFlits, rp.Ejected,
			rp.DeliveredFlits, rp.DeliveredPackets, rp.AbortedPackets,
			rp.meanBufOcc())
	}
	fmt.Fprintln(w, "# vcs")
	fmt.Fprintln(w, "router,vc,mean_buf_occ")
	for _, rp := range p.Routers {
		if rp == nil || rp.Samples == 0 {
			continue
		}
		for v, sum := range rp.VCOccSum {
			fmt.Fprintf(w, "%d,%d,%.4f\n", rp.ID, v, float64(sum)/float64(rp.Samples))
		}
	}
	fmt.Fprintln(w, "# links")
	fmt.Fprintln(w, "link,from,dir,to,flits,head_flits,credits,util,dead_at")
	for _, lp := range p.Links {
		if lp == nil {
			continue
		}
		fmt.Fprintf(w, "%d,%d,%v,%d,%d,%d,%d,%.4f,%d\n",
			lp.Index, lp.From, lp.Dir, lp.To,
			lp.Flits, lp.HeadFlits, lp.Credits, lp.Util(p.Elapsed()), lp.DeadAt)
	}
	// The protocol section only appears when the retry layer published
	// counters, so metrics CSVs from runs without it are unchanged.
	if p.RetryRetransmits != 0 || p.RetryTimeouts != 0 || p.RetryCorrupt != 0 {
		fmt.Fprintln(w, "# protocol")
		fmt.Fprintln(w, "retry_retransmits,retry_timeouts,retry_discarded_corrupt")
		fmt.Fprintf(w, "%d,%d,%d\n", p.RetryRetransmits, p.RetryTimeouts, p.RetryCorrupt)
	}
	fmt.Fprintln(w, "# series")
	fmt.Fprintln(w, "cycle,buf_occ,link_in_flight,link_flits,switch_moves,arb_losses,credit_stalls,res_hits,delivered_flits")
	for _, row := range p.Series {
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			row.Cycle, row.BufOcc, row.LinkInFlight, row.LinkFlits,
			row.SwitchMoves, row.ArbLosses, row.CreditStalls, row.ResHits, row.Delivered)
	}
	return nil
}

// meanBufOcc reports the router's mean total buffered flits across series
// samples (0 when the series was off).
func (rp *RouterProbe) meanBufOcc() float64 {
	if rp.Samples == 0 {
		return 0
	}
	var sum int64
	for _, s := range rp.VCOccSum {
		sum += s
	}
	return float64(sum) / float64(rp.Samples)
}

// MetricsTable renders the counters as aligned text tables: network
// totals, the per-router stall taxonomy, and the busiest channels.
func (p *Probe) MetricsTable() string {
	var sb strings.Builder
	t := p.Totals()
	fmt.Fprintf(&sb, "telemetry over %d cycles:\n", p.Elapsed())
	fmt.Fprintf(&sb, "  flits    injected %d  ejected %d  delivered %d (%d packets)\n", t.InjectedFlits, t.Ejected, t.DeliveredFlits, t.DeliveredPackets)
	fmt.Fprintf(&sb, "  switch   moves %d  bypass %d  route-computes %d\n", t.SwitchMoves, t.BypassMoves, t.Routed)
	fmt.Fprintf(&sb, "  stalls   arbitration losses %d  credit %d  staging %d\n", t.ArbLosses, t.CreditStalls, t.StageStalls)
	if t.ResHits+t.ResMisses > 0 {
		fmt.Fprintf(&sb, "  slots    reservation hits %d  unclaimed %d\n", t.ResHits, t.ResMisses)
	}
	if t.AbortedPackets > 0 || p.DeadLinks > 0 || p.FaultsApplied > 0 {
		fmt.Fprintf(&sb, "  faults   applied %d  dead links %d  aborted packets %d\n",
			p.FaultsApplied, p.DeadLinks, t.AbortedPackets)
	}
	type stalled struct {
		id    int
		total int64
	}
	var hot []stalled
	for _, rp := range p.Routers {
		if rp != nil && rp.ArbLosses+rp.CreditStalls+rp.StageStalls > 0 {
			hot = append(hot, stalled{rp.ID, rp.ArbLosses + rp.CreditStalls + rp.StageStalls})
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].total != hot[j].total {
			return hot[i].total > hot[j].total
		}
		return hot[i].id < hot[j].id
	})
	if len(hot) > 0 {
		if len(hot) > 5 {
			hot = hot[:5]
		}
		sb.WriteString("  most-contended routers (stall events):")
		for _, h := range hot {
			fmt.Fprintf(&sb, "  t%d:%d", h.id, h.total)
		}
		sb.WriteByte('\n')
	}
	busiest := make([]*LinkProbe, 0, len(p.Links))
	for _, lp := range p.Links {
		if lp != nil && lp.Flits > 0 {
			busiest = append(busiest, lp)
		}
	}
	sort.Slice(busiest, func(i, j int) bool {
		if busiest[i].Flits != busiest[j].Flits {
			return busiest[i].Flits > busiest[j].Flits
		}
		return busiest[i].Index < busiest[j].Index
	})
	if len(busiest) > 0 {
		if len(busiest) > 5 {
			busiest = busiest[:5]
		}
		sb.WriteString("  busiest channels (flits, util):\n")
		for _, lp := range busiest {
			fmt.Fprintf(&sb, "    L%d %d-%v: %d flits, %.1f%%\n",
				lp.Index, lp.From, lp.Dir, lp.Flits, 100*lp.Util(p.Elapsed()))
		}
	}
	if n := p.OverUnityLinks(p.Elapsed()); n > 0 {
		fmt.Fprintf(&sb, "  WARNING  %d channel(s) report over-unity duty factor (clamped to 100%%); flit accounting is double-counting\n", n)
	}
	return sb.String()
}

// Heatmap renders the k×k die as ASCII, one cell per tile, showing the mean
// utilization of the tile's outgoing channels — where the §4.4 wire sharing
// happens, from the probe's own counters (reconcilable against the flit
// totals, unlike an instantaneous view). The values are HeatmapGrid's; a
// die position no channel leaves prints as --.
func (p *Probe) Heatmap() string {
	grid := p.HeatmapGrid(p.Elapsed())
	if grid == nil {
		return ""
	}
	tileAt := make([]int, p.kx*p.ky)
	for i := range tileAt {
		tileAt[i] = -1
	}
	for _, lp := range p.Links {
		if lp != nil {
			tileAt[lp.PY*p.kx+lp.PX] = lp.From
		}
	}
	var sb strings.Builder
	sb.WriteString("outgoing-channel duty factor by die position (tile:util):\n")
	for r, row := range grid {
		y := p.ky - 1 - r
		for x, v := range row {
			if tile := tileAt[y*p.kx+x]; tile >= 0 {
				fmt.Fprintf(&sb, "  %2d:%3.0f%%", tile, 100*v)
			} else {
				sb.WriteString("     --  ")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// WriteHeatmapCSV writes the k×k per-tile mean outgoing utilization grid as
// CSV, row y=ky-1 first (matching the ASCII rendering's orientation).
func (p *Probe) WriteHeatmapCSV(w io.Writer) error {
	grid := p.HeatmapGrid(p.Elapsed())
	if grid == nil {
		return fmt.Errorf("telemetry: no grid registered")
	}
	for _, row := range grid {
		for x, v := range row {
			if x > 0 {
				if _, err := fmt.Fprint(w, ","); err != nil {
					return err
				}
			}
			fmt.Fprintf(w, "%.4f", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}
