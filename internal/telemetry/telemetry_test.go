package telemetry

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/route"
)

// TestRegisterIdempotent: registering a component again returns the same
// record, rebound to the counters it was registered with the second time
// (a network rebuilt over the same probe).
func TestRegisterIdempotent(t *testing.T) {
	p := New(Config{})
	var rc1, rc2 RouterCounts
	var pc1, pc2 PortCounts
	a := p.RegisterRouter(3, 4, &rc1, &pc1, nil)
	b := p.RegisterRouter(3, 4, &rc2, &pc2, nil)
	if a != b {
		t.Fatal("RegisterRouter(3) returned two probes")
	}
	if len(a.VCOccSum) != 4 {
		t.Fatalf("VCOccSum len = %d, want 4", len(a.VCOccSum))
	}
	rc1.SwitchMoves, rc2.SwitchMoves = 1, 2
	pc1.InjectedFlits, pc2.InjectedFlits = 3, 4
	if a.SwitchMoves != 2 || a.InjectedFlits != 4 {
		t.Fatalf("re-registered router reads switch moves %d, injected %d; want the second counters' 2, 4", a.SwitchMoves, a.InjectedFlits)
	}
	var lc1, lc2 LinkCounts
	la := p.RegisterLink(2, 0, 1, route.East, 1, 0, 0, &lc1, nil)
	lb := p.RegisterLink(2, 0, 1, route.East, 1, 0, 0, &lc2, nil)
	if la != lb {
		t.Fatal("RegisterLink(2) returned two probes")
	}
	lc1.Flits, lc2.Flits = 5, 6
	if la.Flits != 6 {
		t.Fatalf("re-registered link reads %d flits, want the second counters' 6", la.Flits)
	}
	if p.Links[0] != nil || p.Links[1] != nil {
		t.Fatal("unregistered link slots should stay nil")
	}
	if la.DeadAt != -1 {
		t.Fatalf("fresh link DeadAt = %d, want -1", la.DeadAt)
	}
}

func TestLinkUtil(t *testing.T) {
	lp := &LinkProbe{Serdes: 2, LinkCounts: &LinkCounts{Flits: 10, HeadFlits: 5}}
	if got := lp.Util(40); got != 0.5 {
		t.Fatalf("Util(40) = %v, want 0.5 (10 flits x serdes 2)", got)
	}
	if got := lp.Util(10); got != 1 {
		t.Fatalf("Util must cap at 1, got %v", got)
	}
	if got := lp.Util(0); got != 0 {
		t.Fatalf("Util(0) = %v, want 0", got)
	}
}

func TestAddSampleCumulative(t *testing.T) {
	p := New(Config{SampleEvery: 10})
	rc := &RouterCounts{SwitchMoves: 7, Ejected: 5}
	rp := p.RegisterRouter(0, 2, rc, &PortCounts{}, nil)
	p.RegisterLink(0, 0, 1, route.East, 1, 0, 0, &LinkCounts{Flits: 11}, nil)
	rp.ArbLosses = 2
	p.AddSample(10, 3, 1)
	rc.SwitchMoves = 9
	p.AddSample(20, 0, 0)
	if len(p.Series) != 2 {
		t.Fatalf("series rows = %d, want 2", len(p.Series))
	}
	r0, r1 := p.Series[0], p.Series[1]
	if r0.Cycle != 10 || r0.BufOcc != 3 || r0.LinkInFlight != 1 {
		t.Fatalf("row0 = %+v", r0)
	}
	if r0.SwitchMoves != 7 || r0.ArbLosses != 2 || r0.Delivered != 5 || r0.LinkFlits != 11 {
		t.Fatalf("row0 counters = %+v", r0)
	}
	if r1.SwitchMoves != 9 {
		t.Fatalf("row1.SwitchMoves = %d, want cumulative 9", r1.SwitchMoves)
	}
}

func TestTracerBounded(t *testing.T) {
	p := New(Config{Trace: true, MaxTraceEvents: 3})
	var st TraceStage
	rp := p.RegisterRouter(0, 1, &RouterCounts{}, &PortCounts{}, &st)
	tr := p.Tracer()
	for i := 0; i < 5; i++ {
		rp.Trace(EvRoute, int64(i), 1, 0, 0)
		tr.Merge([]*TraceStage{&st})
	}
	if len(tr.Events()) != 3 {
		t.Fatalf("recorded %d events, want 3 (cap)", len(tr.Events()))
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

// TestTraceMergeOrder: one cycle's staged events merge in phase order,
// then packet id, whichever stage holds them; a packet's own events keep
// their sequence, the stages are emptied, and a cap reached inside the
// cycle keeps a prefix of the merged order. Packet ids too far apart to
// pack into one sort key (base 1<<62 next to id 1) take the comparison
// sort and must merge the same way.
func TestTraceMergeOrder(t *testing.T) {
	for _, base := range []uint64{0, 1 << 62} {
		ev := func(kind EventKind, pkt uint64, a int32) Event {
			if pkt > 1 {
				pkt += base
			}
			return Event{Cycle: 7, Pkt: pkt, Kind: kind, A: a}
		}
		stage := func(evs ...Event) *TraceStage { return &TraceStage{events: evs} }
		want := []Event{
			ev(EvLink, 2, 1), ev(EvLink, 5, 0),
			ev(EvRoute, 2, 0), ev(EvRoute, 5, 1),
			ev(EvXbar, 2, 0),
			ev(EvAbort, 3, 0), ev(EvEject, 3, 1), ev(EvEject, 4, 0),
			ev(EvInject, 1, 0), ev(EvInject, 6, 0),
		}
		for _, max := range []int{0, 4} {
			p := New(Config{Trace: true, MaxTraceEvents: max})
			a := stage(ev(EvInject, 6, 0), ev(EvLink, 5, 0), ev(EvRoute, 5, 1), ev(EvEject, 4, 0))
			b := stage(ev(EvXbar, 2, 0), ev(EvInject, 1, 0), ev(EvAbort, 3, 0), ev(EvEject, 3, 1))
			c := stage(ev(EvRoute, 2, 0), ev(EvLink, 2, 1))
			tr := p.Tracer()
			tr.Merge([]*TraceStage{a, b, c})
			got, keep := tr.Events(), len(want)
			if max > 0 {
				keep = max
			}
			if !slices.Equal(got, want[:keep]) {
				t.Errorf("base %d, cap %d: merged\n%v\nwant\n%v", base, max, got, want[:keep])
			}
			if d := tr.Dropped(); d != int64(len(want)-keep) {
				t.Errorf("base %d, cap %d: dropped %d, want %d", base, max, d, len(want)-keep)
			}
			if len(a.events)+len(b.events)+len(c.events) != 0 {
				t.Errorf("base %d, cap %d: Merge left events staged", base, max)
			}
		}
	}
}

func TestTraceDisabledIsNilSafe(t *testing.T) {
	p := New(Config{})
	var st TraceStage
	rp := p.RegisterRouter(0, 1, &RouterCounts{}, &PortCounts{}, &st)
	rp.Trace(EvRoute, 1, 1, 0, 0) // must not panic
	if len(st.events) != 0 {
		t.Fatal("a probe without Config.Trace staged an event")
	}
	if p.Tracer() != nil {
		t.Fatal("Tracer() non-nil without Config.Trace")
	}
	var sb strings.Builder
	if err := p.WriteChromeTrace(&sb); err == nil {
		t.Fatal("WriteChromeTrace should error when tracing is off")
	}
}

func TestChromeTraceAndTimeline(t *testing.T) {
	p := New(Config{Trace: true})
	var st TraceStage
	stages := []*TraceStage{&st}
	rp := p.RegisterRouter(0, 1, &RouterCounts{}, &PortCounts{}, &st)
	lp := p.RegisterLink(0, 0, 1, route.East, 1, 0, 0, &LinkCounts{}, &st)
	rp.Trace(EvInject, 0, 1, 0, 1)
	p.Tracer().Merge(stages)
	rp.Trace(EvRoute, 1, 1, 0, int32(route.East))
	rp.Trace(EvXbar, 1, 1, 0, 0)
	p.Tracer().Merge(stages)
	lp.TraceHead(2, 1)
	p.Tracer().Merge(stages)
	rp.Trace(EvEject, 3, 1, 1, 2)
	p.Tracer().Merge(stages)
	p.OnLinkDead(0, 4)

	var sb strings.Builder
	if err := p.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"traceEvents"`, `"ph": "X"`, `"ph": "i"`, `"ph": "M"`,
		`pkt 1 0-`, `"inject"`, `"route"`, `"xbar"`, `"link"`, `"eject"`, `"link-dead"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s", want)
		}
	}

}

func TestMetricsCSVSections(t *testing.T) {
	p := New(Config{SampleEvery: 5})
	rp := p.RegisterRouter(0, 2, &RouterCounts{}, &PortCounts{}, nil)
	p.RegisterLink(0, 0, 1, route.East, 1, 0, 0, &LinkCounts{}, nil)
	rp.VCOccSum[0], rp.VCOccSum[1], rp.Samples = 4, 2, 2
	p.AddSample(5, 6, 0)
	p.SetClock(func() int64 { return 100 })
	var sb strings.Builder
	if err := p.WriteMetricsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, section := range []string{"# routers", "# vcs", "# links", "# series"} {
		if !strings.Contains(out, section+"\n") {
			t.Errorf("CSV missing section %q", section)
		}
	}
	if !strings.Contains(out, "0,0,2.0000\n") || !strings.Contains(out, "0,1,1.0000\n") {
		t.Errorf("per-VC mean occupancy rows wrong:\n%s", out)
	}
}

func TestHeatmapGrid(t *testing.T) {
	p := New(Config{})
	p.SetGrid(2, 2)
	// Tiles 0..3 at physical positions (0,0) (1,0) (0,1) (1,1), one
	// outgoing link each; tile 3's is saturated.
	for tile := 0; tile < 4; tile++ {
		lc := &LinkCounts{}
		if tile == 3 {
			lc.Flits = 100
		}
		p.RegisterLink(tile, tile, (tile+1)%4, route.East, 1, tile%2, tile/2, lc, nil)
	}
	p.SetClock(func() int64 { return 100 })
	hm := p.Heatmap()
	lines := strings.Split(strings.TrimRight(hm, "\n"), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("heatmap has %d lines, want 3:\n%s", len(lines), hm)
	}
	// Row order is y=1 first; tile 3 sits at (1,1) so its 100% cell
	// belongs on the first grid row.
	if !strings.Contains(lines[1], "3:100%") {
		t.Errorf("top row %q missing saturated tile 3", lines[1])
	}
	if !strings.Contains(lines[2], "0:  0%") {
		t.Errorf("bottom row %q missing idle tile 0", lines[2])
	}

	if (&Probe{}).Heatmap() != "" {
		t.Error("grid-less probe should render an empty heatmap")
	}
}

func TestMetricsTableTotals(t *testing.T) {
	p := New(Config{})
	for tile := 0; tile < 2; tile++ {
		rp := p.RegisterRouter(tile, 1,
			&RouterCounts{SwitchMoves: 20, Ejected: 10},
			&PortCounts{InjectedFlits: 10, DeliveredFlits: 10, DeliveredPackets: 5}, nil)
		rp.ArbLosses = int64(tile)
	}
	p.RegisterLink(0, 0, 1, route.East, 1, 0, 0, &LinkCounts{Flits: 7}, nil)
	p.SetClock(func() int64 { return 50 })
	out := p.MetricsTable()
	for _, want := range []string{
		"telemetry over 50 cycles",
		"injected 20  ejected 20  delivered 20 (10 packets)",
		"moves 40",
		"arbitration losses 1",
		"most-contended routers (stall events):  t1:1",
		"L0 0-E: 7 flits",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if p.TotalLinkFlits() != 7 || p.TotalDeliveredFlits() != 20 || p.Totals().Ejected != 20 {
		t.Errorf("totals: link=%d delivered=%d ejected=%d", p.TotalLinkFlits(), p.TotalDeliveredFlits(), p.Totals().Ejected)
	}
}

func TestFaultAccounting(t *testing.T) {
	p := New(Config{})
	p.RegisterLink(1, 0, 1, route.East, 1, 0, 0, &LinkCounts{}, nil)
	p.OnLinkDead(1, 42)
	p.OnFault(40, 2, 7)
	if p.DeadLinks != 1 || p.Links[1].DeadAt != 42 || p.FaultsApplied != 1 {
		t.Errorf("dead=%d deadAt=%d faults=%d", p.DeadLinks, p.Links[1].DeadAt, p.FaultsApplied)
	}
}

// TestOverUnityClampAndSurfacing pins the over-unity contract: a channel
// whose flit accounting exceeds the physical wire capacity still reports a
// clamped Util of 1.0, but the condition is never masked — OverUnity,
// OverUnityLinks, the link snapshot, and the text-table WARNING all
// surface it.
func TestOverUnityClampAndSurfacing(t *testing.T) {
	p := New(Config{})
	good := p.RegisterLink(0, 0, 1, route.East, 1, 0, 0, &LinkCounts{}, nil)
	bad := p.RegisterLink(1, 1, 2, route.East, 2, 0, 0, &LinkCounts{}, nil)
	good.Flits = 50 // serdes 1 over 100 cycles: duty 0.5
	bad.Flits = 80  // serdes 2 over 100 cycles: raw duty 1.6
	p.SetClock(func() int64 { return 100 })

	if got := good.Util(100); got != 0.5 {
		t.Fatalf("healthy link Util = %v, want 0.5", got)
	}
	if good.OverUnity(100) {
		t.Fatal("healthy link reported over-unity")
	}
	if got := bad.Util(100); got != 1.0 {
		t.Fatalf("over-unity link Util = %v, want exactly the 1.0 clamp", got)
	}
	if !bad.OverUnity(100) {
		t.Fatal("over-unity condition masked by the clamp")
	}
	if got := p.OverUnityLinks(100); got != 1 {
		t.Fatalf("OverUnityLinks = %d, want 1", got)
	}

	snaps := p.SnapshotLinks(nil, 100)
	if len(snaps) != 2 {
		t.Fatalf("got %d link snapshots, want 2", len(snaps))
	}
	if snaps[0].OverUnity || snaps[0].Util != 0.5 {
		t.Fatalf("healthy link snapshot wrong: %+v", snaps[0])
	}
	if !snaps[1].OverUnity || snaps[1].Util != 1.0 {
		t.Fatalf("over-unity link snapshot wrong: %+v", snaps[1])
	}

	table := p.MetricsTable()
	if !strings.Contains(table, "WARNING") || !strings.Contains(table, "over-unity") {
		t.Fatalf("metrics table does not surface the over-unity warning:\n%s", table)
	}

	// A probe with sane accounting must not warn.
	bad.Flits = 40
	if table := p.MetricsTable(); strings.Contains(table, "WARNING") {
		t.Fatalf("metrics table warns without an over-unity link:\n%s", table)
	}
}
