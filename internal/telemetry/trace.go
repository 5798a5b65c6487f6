package telemetry

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/route"
)

// EventKind labels one step of a packet's lifecycle (or a network-level
// incident) in the execution trace.
type EventKind uint8

// Lifecycle event kinds. Per-packet kinds are recorded on head flits
// (EvEject on the tail, once the packet reassembles), so trace volume
// scales with packets, not flits.
const (
	// EvInject: the head flit entered the network. A = source tile,
	// B = destination tile.
	EvInject EventKind = iota
	// EvRoute: a router popped the head's next route step. A = tile,
	// B = chosen output direction.
	EvRoute
	// EvXbar: the head won switch arbitration and crossed the crossbar.
	// A = tile, B = downstream VC.
	EvXbar
	// EvLink: the head entered a channel's wires. A = link index,
	// B = receiving tile.
	EvLink
	// EvEject: the packet fully reassembled at its destination port.
	// A = tile, B = flit count.
	EvEject
	// EvAbort: a destination port discarded a partial packet on a
	// synthetic abort tail. A = tile.
	EvAbort
	// EvLinkDead: a watchdog declared a channel dead. A = link index.
	EvLinkDead
	// EvFault: the fault injector applied an event. A = fault kind,
	// B = link index or tile.
	EvFault
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvInject:
		return "inject"
	case EvRoute:
		return "route"
	case EvXbar:
		return "xbar"
	case EvLink:
		return "link"
	case EvEject:
		return "eject"
	case EvAbort:
		return "abort"
	case EvLinkDead:
		return "link-dead"
	case EvFault:
		return "fault"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one recorded lifecycle step. The struct is small and flat so the
// tracer's append path stays cheap and allocation-amortized.
type Event struct {
	Cycle int64
	Pkt   uint64 // 0 for network-level events
	Kind  EventKind
	A, B  int32 // kind-specific operands (see the kind constants)
}

// Tracer is the bounded in-memory event log shared by every probe of one
// network. The per-packet events are staged by shard (TraceStage) and
// merged once per cycle; the network-level events come from serial
// phases. Both run on one goroutine, so no locking.
type Tracer struct {
	events  []Event
	max     int
	dropped int64
	cycle   []Event  // Merge's working copy of a cycle, reused
	keys    []uint64 // Merge's sort keys, reused
}

// TraceStage holds the per-packet events one shard's routers, ports and
// links record during a cycle, until Tracer.Merge folds them into the log.
// Only the shard's own worker appends to it.
type TraceStage struct{ events []Event }

// cycleRank orders the per-packet event kinds by the network phase that
// records them within one cycle: wire delivery, route computation, switch
// traversal, ejection, then injection.
var cycleRank = [EvFault + 1]uint8{EvLink: 0, EvRoute: 1, EvXbar: 2, EvEject: 3, EvAbort: 3, EvInject: 4}

// Add records an event, or counts it dropped once the buffer is full.
func (t *Tracer) Add(e Event) {
	if len(t.events) >= t.max {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Merge appends one cycle's staged events to the log and empties the
// stages. The order does not depend on how the tiles were sharded: events
// sort by the phase that recorded them, then by packet id. The sort is
// stable and a packet records all of one cycle's events at one tile, so in
// one stage, which keeps each packet's own sequence. The MaxTraceEvents
// cap applies to the merged order.
func (t *Tracer) Merge(stages []*TraceStage) {
	cyc := t.cycle[:0]
	lo, hi := ^uint64(0), uint64(0)
	for _, s := range stages {
		for _, e := range s.events {
			lo, hi = min(lo, e.Pkt), max(hi, e.Pkt)
		}
		cyc = append(cyc, s.events...)
		s.events = s.events[:0]
	}
	t.cycle = cyc
	if len(t.events) >= t.max { // full: every event drops, in any order
		t.dropped += int64(len(cyc))
		return
	}
	// Each key packs the phase, the packet id's offset from the cycle's
	// lowest and the staged position, so sorting the keys is the stable
	// sort; ids too far apart to pack fall back to a comparison sort.
	idxBits := bits.Len(uint(len(cyc)))
	if 3+bits.Len64(hi-lo)+idxBits > 64 {
		slices.SortStableFunc(cyc, func(a, b Event) int {
			return cmp.Or(cmp.Compare(cycleRank[a.Kind], cycleRank[b.Kind]), cmp.Compare(a.Pkt, b.Pkt))
		})
		for _, e := range cyc {
			t.Add(e)
		}
		return
	}
	keys := t.keys[:0]
	for i, e := range cyc {
		keys = append(keys, uint64(cycleRank[e.Kind])<<61|(e.Pkt-lo)<<idxBits|uint64(i))
	}
	slices.Sort(keys)
	for _, k := range keys {
		t.Add(cyc[k&(1<<idxBits-1)])
	}
	t.keys = keys
}

// Events exposes the log in the order Merge and Add appended it.
func (t *Tracer) Events() []Event { return t.events }

// Dropped reports events lost to the MaxTraceEvents cap.
func (t *Tracer) Dropped() int64 { return t.dropped }

// chromeEvent is one Chrome trace-event object. Fixed struct fields (not
// maps) keep the JSON byte-deterministic for the golden tests.
type chromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  uint64 `json:"tid"`
	S    string `json:"s,omitempty"`
	Args any    `json:"args,omitempty"`
}

// chromeMetaArgs names the process in the viewer's metadata event.
type chromeMetaArgs struct {
	Name string `json:"name"`
}

// chromeArgs carries the kind-specific operands into the trace viewer.
type chromeArgs struct {
	Tile int    `json:"tile,omitempty"`
	Dir  string `json:"dir,omitempty"`
	Link int    `json:"link,omitempty"`
	VC   int    `json:"vc,omitempty"`
	Src  int    `json:"src"`
	Dst  int    `json:"dst"`
}

// chromeTrace is the top-level trace-event JSON document.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// packetEvents groups the tracer's log by packet id, in id order, keeping
// network-level (pkt 0) events separate.
func (t *Tracer) packetEvents() (pkts []uint64, byPkt map[uint64][]Event, global []Event) {
	byPkt = make(map[uint64][]Event)
	for _, e := range t.events {
		if e.Pkt == 0 {
			global = append(global, e)
			continue
		}
		if _, ok := byPkt[e.Pkt]; !ok {
			pkts = append(pkts, e.Pkt)
		}
		byPkt[e.Pkt] = append(byPkt[e.Pkt], e)
	}
	sort.Slice(pkts, func(i, j int) bool { return pkts[i] < pkts[j] })
	return pkts, byPkt, global
}

// WriteChromeTrace renders the lifecycle trace as Chrome trace-event JSON,
// loadable in chrome://tracing or Perfetto. One simulated cycle maps to one
// microsecond of trace time. Each packet becomes a thread (tid = packet
// id): a complete ("X") slice spans injection to ejection, with instant
// events marking every per-hop step; network-level incidents (dead links,
// injected faults) land on tid 0.
func (p *Probe) WriteChromeTrace(w io.Writer) error {
	if p.tracer == nil {
		return fmt.Errorf("telemetry: tracing was not enabled (Config.Trace)")
	}
	pkts, byPkt, global := p.tracer.packetEvents()
	doc := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 0, Args: &chromeMetaArgs{Name: "noc"}},
	}}
	for _, pkt := range pkts {
		evs := byPkt[pkt]
		src, dst := -1, -1
		start, end := evs[0].Cycle, evs[len(evs)-1].Cycle
		done := false
		for _, e := range evs {
			switch e.Kind {
			case EvInject:
				src, dst = int(e.A), int(e.B)
				start = e.Cycle
			case EvEject, EvAbort:
				end = e.Cycle
				done = true
			}
		}
		if !done {
			end++ // still in flight at trace end; give the slice width
		}
		name := fmt.Sprintf("pkt %d %d->%d", pkt, src, dst)
		dur := end - start
		if dur < 1 {
			dur = 1
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: name, Ph: "X", Ts: start, Dur: dur, Pid: 0, Tid: pkt,
			Args: &chromeArgs{Src: src, Dst: dst},
		})
		for _, e := range evs {
			ce := chromeEvent{Name: e.Kind.String(), Ph: "i", Ts: e.Cycle, Pid: 0, Tid: pkt, S: "t"}
			switch e.Kind {
			case EvRoute:
				ce.Args = &chromeArgs{Tile: int(e.A), Dir: route.Dir(e.B).String(), Src: src, Dst: dst}
			case EvXbar:
				ce.Args = &chromeArgs{Tile: int(e.A), VC: int(e.B), Src: src, Dst: dst}
			case EvLink:
				ce.Args = &chromeArgs{Link: int(e.A), Tile: int(e.B), Src: src, Dst: dst}
			case EvEject, EvAbort, EvInject:
				ce.Args = &chromeArgs{Tile: int(e.A), Src: src, Dst: dst}
			}
			doc.TraceEvents = append(doc.TraceEvents, ce)
		}
	}
	for _, e := range global {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: e.Kind.String(), Ph: "i", Ts: e.Cycle, Pid: 0, Tid: 0, S: "g",
			Args: &chromeArgs{Link: int(e.A), Src: -1, Dst: -1},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
