// Package network assembles topologies, routers, and links into the
// complete on-chip network of Section 2 of the paper, and exposes the
// reliable-datagram client interface of §2.1: each tile gets a Port with an
// injection side (gated by per-VC ready signals) and a delivery side
// (reassembled packets), plus helpers to lay out pre-scheduled flows over
// the reservation registers (§2.6).
package network

import (
	"fmt"
	"sort"

	"repro/internal/flit"
	"repro/internal/stats"
)

// Recorder accumulates the measurements every experiment reports: packet
// latency (from creation, so source queueing is included), network latency
// (from injection of the head flit), throughput, hop counts, and per-flow
// delivery traces for jitter analysis.
type Recorder struct {
	// WarmupCycles excludes the transient: only packets born at or after
	// this cycle contribute to latency statistics.
	WarmupCycles int64

	// MeasureUntil, when nonzero, closes the throughput window: flits
	// delivered in [WarmupCycles, MeasureUntil] count toward
	// WindowFlits regardless of when their packet was born.
	MeasureUntil int64
	WindowFlits  int64

	PacketLatency  *stats.Hist // birth -> tail delivery
	NetworkLatency *stats.Hist // head injection -> tail delivery

	Generated        int64
	InjectedPackets  int64
	DeliveredPackets int64
	DeliveredFlits   int64
	measuredFlits    int64
	measureFrom      int64 // first delivery cycle counted for throughput

	perClass map[int]*stats.Hist
	perFlow  map[int]*flowTrace
}

type flowTrace struct {
	latency   *stats.Hist
	interArr  *stats.Hist
	lastCycle int64
	count     int64
}

// NewRecorder returns a recorder with the given warmup horizon.
func NewRecorder(warmup int64) *Recorder {
	return &Recorder{
		WarmupCycles:   warmup,
		PacketLatency:  stats.NewHist(4096),
		NetworkLatency: stats.NewHist(4096),
		perClass:       make(map[int]*stats.Hist),
		perFlow:        make(map[int]*flowTrace),
	}
}

// packetDone records a fully delivered packet whose tail arrived at cycle
// now. tail is the tail flit (carrying birth/inject stamps and class/flow).
func (r *Recorder) packetDone(tail *flit.Flit, flits int, now int64) {
	r.packetDoneRec(tail.Birth, tail.Inject, tail.Class, tail.Flow, flits, now)
}

// packetDoneRec is packetDone on the tail-flit fields alone, so sharded
// eject phases can defer the recorder update past the flit's recycling
// (shard.go) and apply it behind the phase barrier.
func (r *Recorder) packetDoneRec(birth, inject int64, class, flow, flits int, now int64) {
	r.DeliveredPackets++
	r.DeliveredFlits += int64(flits)
	if now >= r.WarmupCycles && (r.MeasureUntil == 0 || now <= r.MeasureUntil) {
		r.WindowFlits += int64(flits)
	}
	if birth < r.WarmupCycles {
		return
	}
	if r.measureFrom == 0 {
		r.measureFrom = now
	}
	r.measuredFlits += int64(flits)
	r.PacketLatency.Add(now - birth)
	r.NetworkLatency.Add(now - inject)
	h, ok := r.perClass[class]
	if !ok {
		h = stats.NewHist(4096)
		r.perClass[class] = h
	}
	h.Add(now - birth)
	if flow != 0 {
		ft, ok := r.perFlow[flow]
		if !ok {
			ft = &flowTrace{latency: stats.NewHist(1024), interArr: stats.NewHist(1024), lastCycle: -1}
			r.perFlow[flow] = ft
		}
		ft.latency.Add(now - birth)
		if ft.lastCycle >= 0 {
			ft.interArr.Add(now - ft.lastCycle)
		}
		ft.lastCycle = now
		ft.count++
	}
}

// ClassLatency reports the latency histogram of a service class (nil if
// the class delivered nothing in the measurement window).
func (r *Recorder) ClassLatency(class int) *stats.Hist { return r.perClass[class] }

// Classes reports the service classes that delivered measured packets, in
// ascending order, so exporters can enumerate ClassLatency histograms
// deterministically.
func (r *Recorder) Classes() []int { return r.AppendClasses(nil) }

// AppendClasses is Classes into a reused buffer, for per-sample callers.
func (r *Recorder) AppendClasses(dst []int) []int {
	dst = dst[:0]
	for c := range r.perClass {
		dst = append(dst, c)
	}
	sort.Ints(dst)
	return dst
}

// FlowLatency reports the latency histogram of a pre-scheduled flow.
func (r *Recorder) FlowLatency(flow int) *stats.Hist {
	if ft := r.perFlow[flow]; ft != nil {
		return ft.latency
	}
	return nil
}

// FlowJitter reports the peak-to-peak delivery jitter of a flow: the
// spread (max - min) of its packet latencies. A perfectly pre-scheduled
// flow has zero jitter (§2.6).
func (r *Recorder) FlowJitter(flow int) int64 {
	ft := r.perFlow[flow]
	if ft == nil || ft.latency.Count() == 0 {
		return 0
	}
	return ft.latency.Max() - ft.latency.Quantile(0)
}

// FlowInterArrival reports the inter-arrival histogram of a flow.
func (r *Recorder) FlowInterArrival(flow int) *stats.Hist {
	if ft := r.perFlow[flow]; ft != nil {
		return ft.interArr
	}
	return nil
}

// ThroughputFlitsPerCycle reports delivered measured flits per cycle over
// the measurement span ending at cycle now.
func (r *Recorder) ThroughputFlitsPerCycle(now int64) float64 {
	span := now - r.measureFrom
	if r.measureFrom == 0 || span <= 0 {
		return 0
	}
	return float64(r.measuredFlits) / float64(span)
}

// String summarizes the recorder.
func (r *Recorder) String() string {
	return fmt.Sprintf("generated=%d injected=%d delivered=%d lat{%v}",
		r.Generated, r.InjectedPackets, r.DeliveredPackets, r.PacketLatency)
}
