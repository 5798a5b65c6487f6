// Package latency is the per-flow latency observatory: an
// allocation-free online decomposition of every delivered packet's
// end-to-end latency against the paper's §3.1 zero-load model
// T0 = H·t_r + L/b.
//
// Packets are classified into flows (source→destination pair, source
// row/column, or traffic class); each flow accumulates a fixed-bucket
// log₂ histogram of end-to-end latency plus exact component sums that
// decompose it by cause:
//
//	total         = arrived − birth                 (what the client saw)
//	source queue  = inject − birth                  (waiting for injection)
//	pipeline      = 2 + H·(1 + linkLatency)         (the §3.1 H·t_r term)
//	serialization = (flits − 1)·serdes              (the §3.1 L/b term)
//	contention    = total − queue − pipeline − ser  (signed residual)
//
// The pipeline and serialization terms are the network's measured
// zero-load latency: on an idle mesh the head flit of an H-hop packet
// arrives exactly 2 + H·(1 + linkLatency) cycles after injection (one
// injection stage, one ejection stage, and per hop one router traversal
// plus the wire), and each body flit adds one serdes period. Their sum
// is the per-packet T0, so the exporter's contention factor
// T/T0 — mean network latency over mean zero-load latency — is the
// live §4.3 load-latency ratio per flow, and a factor past the
// saturation threshold flags the flow as saturated. The contention
// residual is signed: fault rerouting lengthens paths mid-flight
// (positive), and a reserved §2.6 bypass slot can never beat the model
// (zero), so a negative residual indicates a model/implementation
// drift worth investigating.
//
// The decomposition reconciles exactly with the run recorder: both
// gate on birth ≥ warmup and both observe packets at the deterministic
// eject-merge barrier, so Σ_flows(count, Σtotal) equals the recorder's
// PacketLatency (count, sum) byte-for-byte at any shard count.
//
// On top of the per-flow state sits an SLO engine (slo.go): latency
// objectives like "p99<=40" evaluated on a fixed cadence with
// multi-window burn-rate alerting, full attribution (offending flow,
// dominant stall cause, hottest links on the flow's path, exemplar
// packet IDs), and a flight-recorder dump hook so the post-mortem tool
// can time-travel to the exact cycles behind a burn.
//
// With no observatory attached the engine's hot path pays one nil
// check; with one attached the record path is allocation-free (fixed
// arrays, no maps, exemplar rings), preserving the 0 allocs/op steady
// state.
package latency

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"repro/internal/network"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Flow classification modes for Config.Flows.
const (
	FlowPair   = "pair"   // one flow per (src, dst) tile pair: "3->5"
	FlowSrcRow = "srcrow" // one flow per source row: "row2"
	FlowSrcCol = "srccol" // one flow per source column: "col1"
	FlowClass  = "class"  // one flow per traffic class: "class0"
)

// Defaults for Config's zero values.
const (
	DefaultEvery            = 256
	DefaultMaxFlows         = 32
	DefaultMaxFlowStates    = 4096
	DefaultShortWindows     = 2
	DefaultLongWindows      = 16
	DefaultBurnThreshold    = 2.0
	DefaultMinSamples       = 64
	DefaultSaturationFactor = 2.0
)

// maxExemplars is the per-flow exemplar packet-ID ring size.
const maxExemplars = 4

// nBuckets is the per-flow latency histogram size: bucket b holds
// latencies whose bit length is b (i.e. [2^(b-1), 2^b-1]), so 31 exact
// buckets cover every latency below 2^30 cycles and the last bucket
// counts the rest (quantiles there report the exact observed max and
// raise the Overflowed flag).
const nBuckets = 32

// classFlows bounds the class-mode flow space.
const classFlows = 16

// Config parameterizes an Observatory. The zero value of every field
// except Flows selects the documented default.
type Config struct {
	// Flows selects the classification mode (FlowPair, FlowSrcRow,
	// FlowSrcCol, FlowClass). Required.
	Flows string

	// SLO holds ';'-separated latency objectives, e.g.
	// "p99<=40" or "p95<=30@flows;p999<=120@flows" (the "@flows" scope
	// suffix is optional — per-flow is the only scope). Empty disables
	// the SLO engine; the per-flow decomposition still runs.
	SLO string

	// Every is the SLO evaluation cadence in cycles (default 256).
	Every int64

	// MaxFlows bounds exported cardinality: /metrics and /snapshot
	// carry the top-MaxFlows flows by packet count (default 32). The
	// CSV section always carries every active flow.
	MaxFlows int

	// MaxFlowStates bounds the tracked flow space (default 4096); a
	// classification that would exceed it is rejected at Attach.
	MaxFlowStates int

	// ShortWindows and LongWindows are the burn-rate windows in
	// evaluation ticks (defaults 2 and 16); Short must be < Long.
	ShortWindows, LongWindows int

	// BurnThreshold is the burn-rate multiple both windows must exceed
	// to fire (default 2.0: the flow is consuming its error budget at
	// twice the sustainable rate).
	BurnThreshold float64

	// MinSamples is the minimum packet count in the long window before
	// an objective may fire (default 64).
	MinSamples int64

	// SaturationFactor is the contention factor T/T0 at or past which a
	// flow is flagged saturated (default 2.0).
	SaturationFactor float64
}

func (c Config) withDefaults() Config {
	if c.Every <= 0 {
		c.Every = DefaultEvery
	}
	if c.MaxFlows <= 0 {
		c.MaxFlows = DefaultMaxFlows
	}
	if c.MaxFlowStates <= 0 {
		c.MaxFlowStates = DefaultMaxFlowStates
	}
	if c.ShortWindows <= 0 {
		c.ShortWindows = DefaultShortWindows
	}
	if c.LongWindows <= 0 {
		c.LongWindows = DefaultLongWindows
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = DefaultBurnThreshold
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.SaturationFactor <= 0 {
		c.SaturationFactor = DefaultSaturationFactor
	}
	return c
}

// flowState is one flow's fixed-size accumulator. Everything is exact
// integer arithmetic so checkpointed state resumes byte-identically.
type flowState struct {
	count int64
	hist  [nBuckets]int64

	// Component sums; the accounting identity
	// sumTotal == sumQueue + sumPipe + sumSer + sumCont holds by
	// construction (contention is the signed residual).
	sumTotal, sumQueue, sumPipe, sumSer, sumCont int64

	sumNet   int64 // Σ (arrived − inject), the T in T/T0
	sumT0    int64 // Σ per-packet zero-load latency
	sumHops  int64
	maxTotal int64
}

// Observatory classifies delivered packets into flows and maintains the
// per-flow latency decomposition and SLO state. It implements
// network.PacketObserver and network.CheckpointExtra.
type Observatory struct {
	cfg   Config
	topo  topology.Topology
	probe *telemetry.Probe

	warmup          int64
	linkLat, serdes int
	tiles, kx       int

	mode   string
	nFlows int
	names  []string
	flows  []flowState

	// SLO engine state (slo.go). Flattened [nFlows] and [nFlows*nObj]
	// and [..*longW] arrays; all fixed at Attach.
	objectives []Objective
	every      int64
	shortW     int
	longW      int
	burnThr    float64
	minSamples int64
	satFactor  float64
	minTarget  int64 // smallest objective target, the exemplar gate

	ticks                    int64
	bad                      []int64 // [nFlows*nObj] cumulative over-target packets
	lastCount                []int64 // [nFlows] count at last tick
	lastBad                  []int64 // [nFlows*nObj]
	cntRing                  []int64 // [nFlows*longW] per-tick count deltas
	badRing                  []int64 // [nFlows*nObj*longW]
	shortCnt, longCnt        []int64 // [nFlows] running window sums
	shortBad, longBad        []int64 // [nFlows*nObj]
	lastArb, lastCr, lastStg int64   // stall-taxonomy totals at last tick
	firing                   []bool  // [nFlows*nObj]
	since                    []int64
	burnShortV, burnLongV    []float64
	detail                   []string
	exIDs                    []uint64 // [nFlows*maxExemplars] exemplar rings
	exLat                    []int64
	exNext                   []int32 // [nFlows]
	sink                     BurnSink
	firingCount              int
	hotScratch               []int32
}

// Attach builds an observatory over the network's delivered-packet
// stream and registers it as the packet observer, an end-of-cycle SLO
// evaluation phase (when objectives are configured), and a checkpoint
// extra named "latency". Attach it before the serve collector so
// /healthz sees fresh SLO verdicts, and before the flight recorder so
// a burn's dump includes the burn cycle's record.
func Attach(n *network.Network, cfg Config) (*Observatory, error) {
	cfg = cfg.withDefaults()
	if cfg.ShortWindows >= cfg.LongWindows {
		return nil, fmt.Errorf("latency: short window (%d) must be below the long window (%d)", cfg.ShortWindows, cfg.LongWindows)
	}
	topo := n.Topology()
	tiles := topo.NumTiles()
	kx, ky := topo.Radix()

	o := &Observatory{
		cfg:        cfg,
		topo:       topo,
		probe:      n.Probe(),
		warmup:     n.Recorder().WarmupCycles,
		linkLat:    n.LinkLatency(),
		serdes:     n.SerdesCycles(),
		tiles:      tiles,
		kx:         kx,
		mode:       cfg.Flows,
		every:      cfg.Every,
		shortW:     cfg.ShortWindows,
		longW:      cfg.LongWindows,
		burnThr:    cfg.BurnThreshold,
		minSamples: cfg.MinSamples,
		satFactor:  cfg.SaturationFactor,
	}

	switch cfg.Flows {
	case FlowPair:
		o.nFlows = tiles * tiles
	case FlowSrcRow:
		o.nFlows = ky
	case FlowSrcCol:
		o.nFlows = kx
	case FlowClass:
		o.nFlows = classFlows
	default:
		return nil, fmt.Errorf("latency: unknown flow mode %q (want %s, %s, %s, or %s)",
			cfg.Flows, FlowPair, FlowSrcRow, FlowSrcCol, FlowClass)
	}
	if o.nFlows > cfg.MaxFlowStates {
		return nil, fmt.Errorf("latency: flow mode %q needs %d flow states, over the %d cap — use a coarser mode (%s/%s/%s)",
			cfg.Flows, o.nFlows, cfg.MaxFlowStates, FlowSrcRow, FlowSrcCol, FlowClass)
	}

	o.names = make([]string, o.nFlows)
	for i := range o.names {
		switch cfg.Flows {
		case FlowPair:
			o.names[i] = fmt.Sprintf("%d->%d", i/tiles, i%tiles)
		case FlowSrcRow:
			o.names[i] = fmt.Sprintf("row%d", i)
		case FlowSrcCol:
			o.names[i] = fmt.Sprintf("col%d", i)
		case FlowClass:
			o.names[i] = fmt.Sprintf("class%d", i)
		}
	}
	o.flows = make([]flowState, o.nFlows)

	objs, err := ParseSLO(cfg.SLO)
	if err != nil {
		return nil, err
	}
	o.objectives = objs
	nObj := len(objs)
	if nObj > 0 {
		o.minTarget = objs[0].Target
		for _, ob := range objs[1:] {
			if ob.Target < o.minTarget {
				o.minTarget = ob.Target
			}
		}
		o.bad = make([]int64, o.nFlows*nObj)
		o.lastBad = make([]int64, o.nFlows*nObj)
		o.badRing = make([]int64, o.nFlows*nObj*o.longW)
		o.shortBad = make([]int64, o.nFlows*nObj)
		o.longBad = make([]int64, o.nFlows*nObj)
		o.lastCount = make([]int64, o.nFlows)
		o.cntRing = make([]int64, o.nFlows*o.longW)
		o.shortCnt = make([]int64, o.nFlows)
		o.longCnt = make([]int64, o.nFlows)
		o.firing = make([]bool, o.nFlows*nObj)
		o.since = make([]int64, o.nFlows*nObj)
		o.burnShortV = make([]float64, o.nFlows*nObj)
		o.burnLongV = make([]float64, o.nFlows*nObj)
		o.detail = make([]string, o.nFlows*nObj)
		o.exIDs = make([]uint64, o.nFlows*maxExemplars)
		o.exLat = make([]int64, o.nFlows*maxExemplars)
		o.exNext = make([]int32, o.nFlows)
	}

	n.SetPacketObserver(o)
	n.AddCheckpointExtra("latency", o)
	if nObj > 0 {
		n.Kernel().AddPhase("slo", o.phase)
	}
	return o, nil
}

// Config reports the observatory's effective (defaulted) configuration.
func (o *Observatory) Config() Config { return o.cfg }

// NumFlows reports the size of the tracked flow space.
func (o *Observatory) NumFlows() int { return o.nFlows }

// FlowName reports the display name of flow index fi.
func (o *Observatory) FlowName(fi int) string { return o.names[fi] }

// flowIndex classifies one delivered packet; callers guarantee the
// result is in [0, nFlows).
func (o *Observatory) flowIndex(ob *network.PacketObservation) int {
	switch o.mode {
	case FlowPair:
		return ob.Src*o.tiles + ob.Dst
	case FlowSrcRow:
		return ob.Src / o.kx
	case FlowSrcCol:
		return ob.Src % o.kx
	default: // FlowClass
		c := ob.Class
		if c < 0 {
			c = 0
		}
		if c >= o.nFlows {
			c = o.nFlows - 1
		}
		return c
	}
}

// PacketDelivered folds one delivered packet into its flow. It runs at
// the deterministic eject-merge barrier in tile order and allocates
// nothing. The warmup gate mirrors the run recorder's exactly, so the
// per-flow sums reconcile with the recorder's latency histogram.
func (o *Observatory) PacketDelivered(ob *network.PacketObservation) {
	if ob.Birth < o.warmup {
		return
	}
	fi := o.flowIndex(ob)
	f := &o.flows[fi]

	total := ob.Arrived - ob.Birth
	queue := ob.Inject - ob.Birth
	pipe := int64(2 + ob.Hops*(1+o.linkLat))
	ser := int64(ob.Flits-1) * int64(o.serdes)
	net := ob.Arrived - ob.Inject
	cont := net - pipe - ser

	f.count++
	f.sumTotal += total
	f.sumQueue += queue
	f.sumPipe += pipe
	f.sumSer += ser
	f.sumCont += cont
	f.sumNet += net
	f.sumT0 += pipe + ser
	f.sumHops += int64(ob.Hops)
	if total > f.maxTotal {
		f.maxTotal = total
	}
	b := bits.Len64(uint64(total))
	if b >= nBuckets {
		b = nBuckets - 1
	}
	f.hist[b]++

	if nObj := len(o.objectives); nObj > 0 {
		for oi := 0; oi < nObj; oi++ {
			if total > o.objectives[oi].Target {
				o.bad[fi*nObj+oi]++
			}
		}
		// Exemplars: packets over the tightest target, so a burn's dump
		// names concrete packet IDs nocpost can time-travel to.
		if total > o.minTarget {
			slot := fi*maxExemplars + int(o.exNext[fi])%maxExemplars
			o.exIDs[slot] = ob.ID
			o.exLat[slot] = total
			o.exNext[fi]++
		}
	}
}

// quantile estimates the q-quantile of one flow's latency histogram:
// the upper bound of the bucket holding the rank-th sample, which for
// log₂ buckets bounds the true value within 2x. The estimate is clamped
// to the observed maximum (a bucket's nominal upper bound can exceed
// every sample in it), so quantiles never exceed max. A rank landing in
// the top (overflow) bucket returns the exact observed maximum and
// reports overflowed.
func (f *flowState) quantile(q float64) (v int64, overflowed bool) {
	if f.count == 0 {
		return 0, false
	}
	rank := int64(q*float64(f.count) + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > f.count {
		rank = f.count
	}
	var cum int64
	for b := 0; b < nBuckets; b++ {
		cum += f.hist[b]
		if cum >= rank {
			if b == nBuckets-1 {
				return f.maxTotal, true
			}
			v = (int64(1) << uint(b)) - 1
			if v > f.maxTotal {
				v = f.maxTotal
			}
			return v, false
		}
	}
	return f.maxTotal, true
}

// FlowSnap is one flow's exported state, for /snapshot and the noctop
// panel.
type FlowSnap struct {
	Flow  string `json:"flow"`
	Count int64  `json:"count"`

	MeanCycles float64 `json:"mean_cycles"`
	P50        int64   `json:"p50_cycles"`
	P99        int64   `json:"p99_cycles"`
	MaxCycles  int64   `json:"max_cycles"`
	Overflowed bool    `json:"overflowed,omitempty"`

	// Cumulative per-cause cycle totals; they sum to MeanCycles·Count
	// exactly (contention is signed).
	QueueCycles         int64 `json:"queue_cycles"`
	PipelineCycles      int64 `json:"pipeline_cycles"`
	SerializationCycles int64 `json:"serialization_cycles"`
	ContentionCycles    int64 `json:"contention_cycles"`

	MeanHops         float64 `json:"mean_hops"`
	ZeroLoadCycles   float64 `json:"zero_load_cycles"`  // mean per-packet T0
	ContentionFactor float64 `json:"contention_factor"` // mean T / mean T0
	Saturated        bool    `json:"saturated,omitempty"`
}

func (o *Observatory) flowSnap(fi int) FlowSnap {
	f := &o.flows[fi]
	s := FlowSnap{
		Flow:                o.names[fi],
		Count:               f.count,
		MaxCycles:           f.maxTotal,
		QueueCycles:         f.sumQueue,
		PipelineCycles:      f.sumPipe,
		SerializationCycles: f.sumSer,
		ContentionCycles:    f.sumCont,
	}
	if f.count == 0 {
		return s
	}
	s.MeanCycles = float64(f.sumTotal) / float64(f.count)
	s.P50, _ = f.quantile(0.50)
	s.P99, s.Overflowed = f.quantile(0.99)
	s.MeanHops = float64(f.sumHops) / float64(f.count)
	s.ZeroLoadCycles = float64(f.sumT0) / float64(f.count)
	if f.sumT0 > 0 {
		s.ContentionFactor = float64(f.sumNet) / float64(f.sumT0)
		s.Saturated = s.ContentionFactor >= o.satFactor && f.count >= 16
	}
	return s
}

// AppendFlowSnaps appends the top-MaxFlows flows by packet count
// (ties broken by flow index, so the selection is deterministic) to
// dst and returns it.
func (o *Observatory) AppendFlowSnaps(dst []FlowSnap) []FlowSnap {
	if cap(o.hotScratch) < o.cfg.MaxFlows {
		o.hotScratch = make([]int32, 0, o.cfg.MaxFlows)
	}
	top := o.hotScratch[:0]
	// Partial selection: repeatedly scan for the best unpicked flow.
	// MaxFlows is small (32) so this stays O(MaxFlows·nFlows) with no
	// allocation.
	for len(top) < o.cfg.MaxFlows {
		best := -1
		for fi := range o.flows {
			if o.flows[fi].count == 0 {
				continue
			}
			picked := false
			for _, t := range top {
				if int(t) == fi {
					picked = true
					break
				}
			}
			if picked {
				continue
			}
			if best < 0 || o.flows[fi].count > o.flows[best].count {
				best = fi
			}
		}
		if best < 0 {
			break
		}
		top = append(top, int32(best))
	}
	o.hotScratch = top
	for _, fi := range top {
		dst = append(dst, o.flowSnap(int(fi)))
	}
	return dst
}

// Totals reports the observatory-wide packet count and end-to-end
// latency sum, the reconciliation identity's left-hand side: they
// equal the run recorder's PacketLatency count and sum exactly.
func (o *Observatory) Totals() (count, sumTotal int64) {
	for i := range o.flows {
		count += o.flows[i].count
		sumTotal += o.flows[i].sumTotal
	}
	return count, sumTotal
}

// WriteCSV writes the "# flows" section: one row per active flow in
// index order (full cardinality — the MaxFlows bound applies only to
// the live surfaces), plus per-objective cumulative over-target counts.
// The output is a pure function of checkpointed state, so a resumed
// run's section byte-matches a straight-through run's.
func (o *Observatory) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# flows\n"); err != nil {
		return err
	}
	header := "flow,count,mean_cycles,p50,p99,max,overflowed,queue_cycles,pipeline_cycles,serialization_cycles,contention_cycles,mean_hops,t0_cycles,contention_factor,saturated"
	for _, ob := range o.objectives {
		header += ",bad_" + ob.Slug()
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	nObj := len(o.objectives)
	for fi := range o.flows {
		if o.flows[fi].count == 0 {
			continue
		}
		s := o.flowSnap(fi)
		if _, err := fmt.Fprintf(w, "%s,%d,%.3f,%d,%d,%d,%t,%d,%d,%d,%d,%.3f,%.3f,%.4f,%t",
			s.Flow, s.Count, s.MeanCycles, s.P50, s.P99, s.MaxCycles, s.Overflowed,
			s.QueueCycles, s.PipelineCycles, s.SerializationCycles, s.ContentionCycles,
			s.MeanHops, s.ZeroLoadCycles, s.ContentionFactor, s.Saturated); err != nil {
			return err
		}
		for oi := 0; oi < nObj; oi++ {
			if _, err := fmt.Fprintf(w, ",%d", o.bad[fi*nObj+oi]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// ActiveFlows reports the indices of flows with at least one delivered
// packet, in index order (allocates; reporting path only).
func (o *Observatory) ActiveFlows() []int {
	var out []int
	for fi := range o.flows {
		if o.flows[fi].count > 0 {
			out = append(out, fi)
		}
	}
	sort.Ints(out)
	return out
}
