// SLO engine: latency objectives per flow with multi-window burn-rate
// alerting. An objective like "p99<=40" grants each flow an error
// budget of 1% of its packets over 40 cycles; the burn rate is the
// multiple of that budget the flow is actually consuming. The engine
// evaluates on a fixed cycle cadence in a serial end-of-cycle phase
// (deterministic at any shard count), keeps a short and a long window
// of evaluation ticks, and fires only when BOTH exceed the threshold —
// the short window makes alerts fast, the long window keeps one noisy
// tick from paging. Firing degrades /healthz through the serve
// collector with full attribution and (when a flight recorder is
// attached) triggers a post-mortem dump whose reason names the flow.
package latency

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/health"
	"repro/internal/topology"
)

// Objective is one parsed latency objective.
type Objective struct {
	Name   string  // quantile name: "p50", "p90", "p95", "p99", "p999"
	Q      float64 // 0.50 … 0.999
	Target int64   // latency bound in cycles
}

// String renders the canonical spec form, e.g. "p99<=40".
func (ob Objective) String() string { return fmt.Sprintf("%s<=%d", ob.Name, ob.Target) }

// Slug renders an identifier-safe form for CSV headers and metric
// labels, e.g. "p99le40".
func (ob Objective) Slug() string { return fmt.Sprintf("%sle%d", ob.Name, ob.Target) }

var quantiles = map[string]float64{
	"p50": 0.50, "p90": 0.90, "p95": 0.95, "p99": 0.99, "p999": 0.999,
}

// ParseSLO parses a ';'-separated objective list ("p99<=40@flows"; the
// "@flows" scope suffix is optional). Empty input yields no objectives.
func ParseSLO(spec string) ([]Objective, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []Objective
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		body, scope, scoped := strings.Cut(part, "@")
		if scoped && scope != "flows" {
			return nil, fmt.Errorf("latency: objective %q: unknown scope %q (only \"flows\")", part, scope)
		}
		qname, target, ok := strings.Cut(body, "<=")
		if !ok {
			return nil, fmt.Errorf("latency: objective %q: want quantile<=cycles, e.g. p99<=40", part)
		}
		q, ok := quantiles[qname]
		if !ok {
			return nil, fmt.Errorf("latency: objective %q: unknown quantile %q (want p50/p90/p95/p99/p999)", part, qname)
		}
		t, err := strconv.ParseInt(target, 10, 64)
		if err != nil || t <= 0 {
			return nil, fmt.Errorf("latency: objective %q: bad target %q (want a positive cycle count)", part, target)
		}
		for _, prev := range out {
			if prev.Name == qname {
				return nil, fmt.Errorf("latency: objective %q: quantile %s already specified", part, qname)
			}
		}
		out = append(out, Objective{Name: qname, Q: q, Target: t})
	}
	return out, nil
}

// BurnSink receives SLO burn transitions; the flight recorder
// implements it to log the event and write a post-mortem dump whose
// captured window includes the burn cycle. Calls arrive from a serial
// kernel phase, so implementations need no locking.
type BurnSink interface {
	OnSLOBurn(cycle int64, flow string, ev health.Event)
}

// SetBurnSink installs (or with nil removes) the burn-transition sink.
func (o *Observatory) SetBurnSink(s BurnSink) { o.sink = s }

// phase is the serial end-of-cycle SLO evaluation hook. It runs after
// the eject merge (registration order), so a tick sees every packet
// delivered up to and including the current cycle.
func (o *Observatory) phase(now sim.Cycle) {
	if now == 0 || now%o.every != 0 {
		return
	}
	o.tick(int64(now))
}

// tick folds one evaluation window: per flow, push the packet-count and
// over-target deltas into the burn rings (running window sums, O(1) per
// flow-objective) and re-judge every objective. Allocation-free while
// no transition fires.
func (o *Observatory) tick(now int64) {
	nObj := len(o.objectives)
	slot := int(o.ticks % int64(o.longW))
	o.ticks++

	// Stall-taxonomy window deltas for burn attribution.
	var t telemetry.Totals
	if o.probe != nil {
		t = o.probe.Totals()
	}
	dArb, dCr, dStg := t.ArbLosses-o.lastArb, t.CreditStalls-o.lastCr, t.StageStalls-o.lastStg
	o.lastArb, o.lastCr, o.lastStg = t.ArbLosses, t.CreditStalls, t.StageStalls

	shortEvict := (slot - o.shortW + o.longW) % o.longW
	for fi := range o.flows {
		cntDelta := o.flows[fi].count - o.lastCount[fi]
		o.lastCount[fi] = o.flows[fi].count
		base := fi * o.longW
		o.shortCnt[fi] += cntDelta - o.cntRing[base+shortEvict]
		o.longCnt[fi] += cntDelta - o.cntRing[base+slot]
		o.cntRing[base+slot] = cntDelta

		for oi := 0; oi < nObj; oi++ {
			k := fi*nObj + oi
			badDelta := o.bad[k] - o.lastBad[k]
			o.lastBad[k] = o.bad[k]
			kbase := k * o.longW
			o.shortBad[k] += badDelta - o.badRing[kbase+shortEvict]
			o.longBad[k] += badDelta - o.badRing[kbase+slot]
			o.badRing[kbase+slot] = badDelta

			budget := 1 - o.objectives[oi].Q
			var bs, bl float64
			if o.shortCnt[fi] > 0 {
				bs = float64(o.shortBad[k]) / float64(o.shortCnt[fi]) / budget
			}
			if o.longCnt[fi] > 0 {
				bl = float64(o.longBad[k]) / float64(o.longCnt[fi]) / budget
			}
			o.burnShortV[k], o.burnLongV[k] = bs, bl

			fire := o.longCnt[fi] >= o.minSamples && bs >= o.burnThr && bl >= o.burnThr
			switch {
			case fire && !o.firing[k]:
				o.firing[k] = true
				o.firingCount++
				o.since[k] = now
				o.detail[k] = o.attribution(fi, oi, bs, bl, dArb, dCr, dStg)
				if o.sink != nil {
					o.sink.OnSLOBurn(now, o.names[fi], health.Event{
						Cycle: now, Detector: "slo", Healthy: false, Detail: o.detail[k],
					})
				}
			case !fire && o.firing[k]:
				o.firing[k] = false
				o.firingCount--
				recov := fmt.Sprintf("flow %s %s burn recovered (%.1fx short / %.1fx long)",
					o.names[fi], o.objectives[oi].String(), bs, bl)
				if o.sink != nil {
					o.sink.OnSLOBurn(now, o.names[fi], health.Event{
						Cycle: now, Detector: "slo", Healthy: true, Detail: recov,
					})
				}
				o.detail[k] = ""
			}
		}
	}
}

// dominantStall names the largest stall-cause delta of the last window.
func dominantStall(dArb, dCr, dStg int64) string {
	switch {
	case dCr >= dArb && dCr >= dStg:
		return "credit/VC-blocked"
	case dArb >= dStg:
		return "switch-arb"
	default:
		return "stage-occupied"
	}
}

// attribution builds the burn detail string: flow, objective, burn
// rates, paper-model drift (T/T0), dominant stall cause over the last
// window, the hottest links on the flow's path, and exemplar packet
// IDs for the flight-recorder dump.
func (o *Observatory) attribution(fi, oi int, bs, bl float64, dArb, dCr, dStg int64) string {
	var sb strings.Builder
	ob := o.objectives[oi]
	nObj := len(o.objectives)
	k := fi*nObj + oi
	fmt.Fprintf(&sb, "flow %s %s: burn %.1fx short / %.1fx long (%d/%d over target in window)",
		o.names[fi], ob.String(), bs, bl, o.longBad[k], o.longCnt[fi])
	f := &o.flows[fi]
	if f.count > 0 && f.sumT0 > 0 {
		fmt.Fprintf(&sb, "; T/T0 %.2f (zero-load %.1f cycles)",
			float64(f.sumNet)/float64(f.sumT0), float64(f.sumT0)/float64(f.count))
	}
	if o.probe != nil {
		fmt.Fprintf(&sb, "; dominant stall: %s (arb %d / credit %d / stage %d this window)",
			dominantStall(dArb, dCr, dStg), dArb, dCr, dStg)
	} else {
		sb.WriteString("; dominant stall: unknown (no probe)")
	}
	o.appendHotLinks(&sb, fi)
	o.appendExemplars(&sb, fi)
	return sb.String()
}

// appendHotLinks names the hottest channels relevant to the flow: for
// pair flows, the channels on the flow's dimension-order path; for
// aggregate flows, the globally hottest channels.
func (o *Observatory) appendHotLinks(sb *strings.Builder, fi int) {
	if o.probe == nil || len(o.probe.Links) == 0 {
		return
	}
	var best, second *linkRef
	consider := func(from int, d route.Dir) {
		for _, lp := range o.probe.Links {
			if lp == nil || lp.From != from || lp.Dir != d {
				continue
			}
			r := linkRef{index: lp.Index, from: from, dir: d, flits: lp.Flits}
			if best == nil || r.flits > best.flits {
				second, best = best, &r
			} else if second == nil || r.flits > second.flits {
				second = &r
			}
			return
		}
	}
	if o.mode == FlowPair {
		src, dst := fi/o.tiles, fi%o.tiles
		if src == dst {
			return
		}
		sx, sy := topology.Coord(o.topo, src)
		dx, dy := topology.Coord(o.topo, dst)
		tile := src
		for _, d := range route.DimensionOrder(o.topo, sx, sy, dx, dy) {
			consider(tile, d)
			next, ok := o.topo.Neighbor(tile, d)
			if !ok {
				break
			}
			tile = next
		}
		sb.WriteString("; hottest path links:")
	} else {
		for _, lp := range o.probe.Links {
			if lp != nil {
				consider(lp.From, lp.Dir)
			}
		}
		sb.WriteString("; hottest links:")
	}
	if best == nil {
		sb.WriteString(" none")
		return
	}
	fmt.Fprintf(sb, " L%d %d-%v (%d flits)", best.index, best.from, best.dir, best.flits)
	if second != nil {
		fmt.Fprintf(sb, ", L%d %d-%v (%d flits)", second.index, second.from, second.dir, second.flits)
	}
}

type linkRef struct {
	index, from int
	dir         route.Dir
	flits       int64
}

// appendExemplars names the most recent over-target packet IDs of the
// flow, newest first.
func (o *Observatory) appendExemplars(sb *strings.Builder, fi int) {
	n := int(o.exNext[fi])
	if n == 0 {
		return
	}
	if n > maxExemplars {
		n = maxExemplars
	}
	sb.WriteString("; exemplar pkts:")
	for i := 0; i < n; i++ {
		slot := fi*maxExemplars + (int(o.exNext[fi])-1-i+8*maxExemplars)%maxExemplars
		fmt.Fprintf(sb, " %d(lat %d)", o.exIDs[slot], o.exLat[slot])
	}
}

// Exemplars reports flow fi's recent over-target packet IDs, newest
// first (allocates; reporting path only).
func (o *Observatory) Exemplars(fi int) []uint64 {
	n := int(o.exNext[fi])
	if n > maxExemplars {
		n = maxExemplars
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		slot := fi*maxExemplars + (int(o.exNext[fi])-1-i+8*maxExemplars)%maxExemplars
		out = append(out, o.exIDs[slot])
	}
	return out
}

// Healthy reports whether no flow-objective pair is currently burning.
func (o *Observatory) Healthy() bool { return o.firingCount == 0 }

// maxVerdicts bounds the /healthz verdict rows; further burning pairs
// are folded into one summary row.
const maxVerdicts = 8

// AppendVerdicts appends the SLO engine's current judgment to dst: one
// healthy row when nothing burns, otherwise one row per burning
// flow-objective pair (flow-index order, capped) plus a summary row for
// any overflow. Appends nothing when no objectives are configured.
func (o *Observatory) AppendVerdicts(dst []health.Verdict) []health.Verdict {
	if len(o.objectives) == 0 {
		return dst
	}
	if o.firingCount == 0 {
		return append(dst, health.Verdict{Detector: "slo", Healthy: true})
	}
	emitted := 0
	for k := range o.firing {
		if !o.firing[k] {
			continue
		}
		if emitted == maxVerdicts {
			return append(dst, health.Verdict{
				Detector: "slo", Healthy: false, Since: o.since[k],
				Detail: fmt.Sprintf("+%d more flow-objective pairs burning", o.firingCount-emitted),
			})
		}
		dst = append(dst, health.Verdict{
			Detector: "slo", Healthy: false, Since: o.since[k], Detail: o.detail[k],
		})
		emitted++
	}
	return dst
}

// SLOSnap is one objective's state on one flow, for /snapshot and the
// noctop panel. Only burning pairs are exported.
type SLOSnap struct {
	Objective string   `json:"objective"`
	Flow      string   `json:"flow"`
	Since     int64    `json:"since"`
	BurnShort float64  `json:"burn_short"`
	BurnLong  float64  `json:"burn_long"`
	Bad       int64    `json:"bad_packets"`
	Count     int64    `json:"packets"`
	Exemplars []uint64 `json:"exemplar_packets,omitempty"`
	Detail    string   `json:"detail,omitempty"`
}

// AppendSLOSnaps appends one row per burning flow-objective pair
// (flow-index order, capped at MaxFlows rows) to dst and returns it.
func (o *Observatory) AppendSLOSnaps(dst []SLOSnap) []SLOSnap {
	nObj := len(o.objectives)
	if nObj == 0 || o.firingCount == 0 {
		return dst
	}
	emitted := 0
	for k := range o.firing {
		if !o.firing[k] || emitted == o.cfg.MaxFlows {
			continue
		}
		fi, oi := k/nObj, k%nObj
		dst = append(dst, SLOSnap{
			Objective: o.objectives[oi].String(),
			Flow:      o.names[fi],
			Since:     o.since[k],
			BurnShort: o.burnShortV[k],
			BurnLong:  o.burnLongV[k],
			Bad:       o.bad[k],
			Count:     o.flows[fi].count,
			Exemplars: o.Exemplars(fi),
			Detail:    o.detail[k],
		})
		emitted++
	}
	return dst
}
