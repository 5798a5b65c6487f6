package router

import (
	"strings"
	"testing"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/route"
)

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(0)
	bad.NumVCs = 0
	if _, err := New(bad); err == nil {
		t.Error("zero VCs accepted")
	}
	bad = DefaultConfig(0)
	bad.NumVCs = 99
	if _, err := New(bad); err == nil {
		t.Error("too many VCs accepted")
	}
	bad = DefaultConfig(0)
	bad.BufFlits = 0
	if _, err := New(bad); err == nil {
		t.Error("zero buffers accepted")
	}
	bad = DefaultConfig(0)
	bad.ReservedVC = 8
	if _, err := New(bad); err == nil {
		t.Error("reserved VC out of range accepted")
	}
}

func TestFiveControllerStructure(t *testing.T) {
	// Figures 2-3: five input controllers, five output controllers; per-VC
	// buffers and state in each input controller; one staging buffer per
	// input in each output controller.
	r, err := New(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.inputs) != NumPorts || len(r.outputs) != NumPorts {
		t.Fatalf("controllers: %d in, %d out", len(r.inputs), len(r.outputs))
	}
	for _, ic := range r.inputs {
		if len(ic.vcs) != flit.NumVCs {
			t.Fatalf("input %v has %d VCs", ic.dir, len(ic.vcs))
		}
	}
	for _, oc := range r.outputs {
		if len(oc.staging) != NumPorts {
			t.Fatalf("output %v staging size %d", oc.dir, len(oc.staging))
		}
		if len(oc.credits) != flit.NumVCs || len(oc.vcOwner) != flit.NumVCs {
			t.Fatalf("output %v credit/vc state sized %d/%d", oc.dir, len(oc.credits), len(oc.vcOwner))
		}
	}
	if r.ID() != 3 {
		t.Fatalf("id = %d", r.ID())
	}
}

func TestRRArbiterFairness(t *testing.T) {
	a := newRRArbiter(4)
	req := []bool{true, true, true, true}
	wins := make([]int, 4)
	for i := 0; i < 400; i++ {
		wins[a.Grant(req)]++
	}
	for i, w := range wins {
		if w != 100 {
			t.Fatalf("requester %d won %d of 400", i, w)
		}
	}
	if a.Grant([]bool{false, false, false, false}) != -1 {
		t.Fatal("grant with no requests")
	}
}

func TestRRArbiterSkipsIdle(t *testing.T) {
	a := newRRArbiter(3)
	if got := a.Grant([]bool{false, true, false}); got != 1 {
		t.Fatalf("grant = %d", got)
	}
	if got := a.Grant([]bool{true, false, true}); got != 2 {
		t.Fatalf("grant after pointer advance = %d (pointer should be past 1)", got)
	}
}

func TestResTable(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.ResPeriod = 8
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Reservations(route.East)
	if tb.Period() != 8 || tb.Reserved() {
		t.Fatal("fresh table state wrong")
	}
	if err := tb.Reserve(3, 7); err != nil {
		t.Fatal(err)
	}
	if err := tb.Reserve(11, 7); err != nil { // same slot (11 mod 8), same flow
		t.Fatal(err)
	}
	if err := tb.Reserve(3, 9); err == nil {
		t.Fatal("conflicting reservation accepted")
	}
	if err := tb.Reserve(0, 0); err == nil {
		t.Fatal("flow id 0 accepted")
	}
	if tb.FlowAt(3) != 7 || tb.FlowAt(11) != 7 || tb.FlowAt(4) != 0 {
		t.Fatal("FlowAt wrong")
	}
	if tb.Utilization() != 1.0/8.0 {
		t.Fatalf("utilization = %v", tb.Utilization())
	}
	if !tb.Reserved() {
		t.Fatal("Reserved() false after booking")
	}
}

func TestRouteComputeTurns(t *testing.T) {
	// A head flit arriving on the west input (heading east) with code
	// Left must select the north output; Extract selects Local.
	r, _ := New(DefaultConfig(0))
	mk := func(code route.Code) *flit.Flit {
		var w route.Word
		w, _ = w.Push(code)
		w, _ = w.Push(route.Extract)
		return &flit.Flit{Type: flit.Head, VC: 0, Mask: flit.MaskFor(0), Route: w, PacketID: 1}
	}
	cases := []struct {
		code route.Code
		want route.Dir
	}{
		{route.Straight, route.East},
		{route.Left, route.North},
		{route.Right, route.South},
		{route.Extract, route.Local},
	}
	for _, c := range cases {
		f := mk(c.code)
		r.AcceptFlit(f, route.West)
		r.RouteCompute(0)
		st := &r.inputs[portIndex(route.West)].vcs[0]
		if !st.routed || st.outPort != c.want {
			t.Fatalf("code %v: routed to %v, want %v", c.code, st.outPort, c.want)
		}
		// Clear for next case.
		st.buf, st.head = nil, 0
		st.routed = false
		r.rebuildMasks()
	}
	// From the local (injection) port the code is an absolute direction.
	f := mk(route.Right) // absolute south
	r.AcceptFlit(f, route.Local)
	r.RouteCompute(0)
	st := r.inputs[portIndex(route.Local)].vcs[0]
	if st.outPort != route.South {
		t.Fatalf("injected code Right routed to %v, want S", st.outPort)
	}
}

func TestCreditAccounting(t *testing.T) {
	r, _ := New(DefaultConfig(0))
	out := link.New(link.Config{})
	r.SetOutLink(route.East, out, 4)
	if got := r.CreditCount(route.East, 0); got != 4 {
		t.Fatalf("initial credits = %d", got)
	}
	// Inject a 3-flit packet heading east.
	var w route.Word
	w, _ = w.Push(route.Left) // absolute east from local port
	w, _ = w.Push(route.Extract)
	flits := []*flit.Flit{
		{Type: flit.Head, VC: 0, Mask: flit.MaskFor(0), Route: w, PacketID: 5},
		{Type: flit.Body, VC: 0, Mask: flit.MaskFor(0), PacketID: 5, Seq: 1},
		{Type: flit.Tail, VC: 0, Mask: flit.MaskFor(0), PacketID: 5, Seq: 2},
	}
	now := int64(0)
	for _, f := range flits {
		r.AcceptFlit(f, route.Local)
	}
	for cycle := 0; cycle < 10; cycle++ {
		out.Deliver()
		r.RouteCompute(now)
		r.LinkArbitrate(now)
		r.SwitchArbitrate(now)
		now++
	}
	// All three flits crossed the switch: 3 credits consumed downstream.
	if got := r.CreditCount(route.East, 0); got != 1 {
		t.Fatalf("credits after 3-flit packet = %d, want 1", got)
	}
	// Downstream returns credits.
	for i := 0; i < 3; i++ {
		r.HandleCredit(route.East, 0)
	}
	if got := r.CreditCount(route.East, 0); got != 4 {
		t.Fatalf("credits after return = %d, want 4", got)
	}
	if r.Stats.SwitchMoves != 3 {
		t.Fatalf("switch moves = %d", r.Stats.SwitchMoves)
	}
}

func TestCreditBackpressureStopsFlow(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.BufFlits = 2
	r, _ := New(cfg)
	out := link.New(link.Config{})
	r.SetOutLink(route.East, out, 2) // downstream has 2 slots
	var w route.Word
	w, _ = w.Push(route.Left)
	w, _ = w.Push(route.Extract)
	now := int64(0)
	sent := 0
	// Never deliver (downstream never drains, no credits return): after 2
	// flits cross, the rest must stall in the input buffer.
	for cycle := 0; cycle < 20; cycle++ {
		if r.CanInject(0) {
			f := &flit.Flit{Type: flit.Head, VC: 0, Mask: flit.MaskFor(0), Route: w, PacketID: uint64(100 + sent)}
			f.Type = flit.HeadTail
			r.AcceptFlit(f, route.Local)
			sent++
		}
		out.Deliver() // drain the wire but return no credits
		r.RouteCompute(now)
		r.LinkArbitrate(now)
		r.SwitchArbitrate(now)
		now++
	}
	if got := r.CreditCount(route.East, 0); got != 0 {
		t.Fatalf("credits = %d, want 0 (exhausted)", got)
	}
	// Exactly 2 flits crossed the switch on VC 0; others blocked. (They
	// can still use other VCs of the mask — the mask here is only VC 0.)
	if r.Stats.SwitchMoves != 2 {
		t.Fatalf("switch moves = %d, want 2", r.Stats.SwitchMoves)
	}
}

func TestVCAllocationExclusive(t *testing.T) {
	// Two packets from different inputs to the same output with a
	// single-VC mask: the second head cannot allocate until the first
	// packet's tail departs.
	cfg := DefaultConfig(0)
	r, _ := New(cfg)
	out := link.New(link.Config{})
	r.SetOutLink(route.East, out, 4)

	var wWest route.Word // arriving from west heading east: straight
	wWest, _ = wWest.Push(route.Straight)
	wWest, _ = wWest.Push(route.Extract)
	var wNorth route.Word // arriving from north heading south: left = east
	wNorth, _ = wNorth.Push(route.Left)
	wNorth, _ = wNorth.Push(route.Extract)

	a := []*flit.Flit{
		{Type: flit.Head, VC: 2, Mask: flit.MaskFor(2), Route: wWest, PacketID: 1},
		{Type: flit.Tail, VC: 2, Mask: flit.MaskFor(2), PacketID: 1, Seq: 1},
	}
	b := []*flit.Flit{
		{Type: flit.Head, VC: 2, Mask: flit.MaskFor(2), Route: wNorth, PacketID: 2},
		{Type: flit.Tail, VC: 2, Mask: flit.MaskFor(2), PacketID: 2, Seq: 1},
	}
	r.AcceptFlit(a[0], route.West)
	r.AcceptFlit(b[0], route.North)
	now := int64(0)
	step := func() {
		out.Deliver()
		r.RouteCompute(now)
		r.LinkArbitrate(now)
		r.SwitchArbitrate(now)
		now++
	}
	step()
	// Exactly one of the two heads may hold VC 2.
	oc := r.outputs[portIndex(route.East)]
	owners := 0
	if oc.vcOwner[2] != 0 {
		owners++
	}
	if owners != 1 {
		t.Fatalf("VC owners after first cycle = %d", owners)
	}
	winner := oc.vcOwner[2] - 1 // packet id
	// Feed tails and run to completion.
	r.AcceptFlit(a[1], route.West)
	r.AcceptFlit(b[1], route.North)
	for i := 0; i < 12; i++ {
		step()
	}
	if oc.vcOwner[2] != 0 {
		t.Fatalf("VC 2 not released (owner %d)", oc.vcOwner[2])
	}
	if r.Stats.SwitchMoves != 4 {
		t.Fatalf("switch moves = %d, want 4", r.Stats.SwitchMoves)
	}
	_ = winner
}

func TestAcceptOverflowPanics(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.BufFlits = 1
	r, _ := New(cfg)
	f1 := &flit.Flit{Type: flit.HeadTail, VC: 0, Mask: flit.MaskFor(0)}
	f2 := &flit.Flit{Type: flit.HeadTail, VC: 0, Mask: flit.MaskFor(0)}
	r.AcceptFlit(f1, route.West)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic (credit violation undetected)")
		}
	}()
	r.AcceptFlit(f2, route.West)
}

func TestNonSpeculativeAddsACycle(t *testing.T) {
	run := func(nonspec bool) int64 {
		cfg := DefaultConfig(0)
		cfg.NonSpeculative = nonspec
		r, _ := New(cfg)
		out := link.New(link.Config{})
		r.SetOutLink(route.East, out, 4)
		var w route.Word
		w, _ = w.Push(route.Straight)
		w, _ = w.Push(route.Extract)
		f := &flit.Flit{Type: flit.HeadTail, VC: 0, Mask: flit.MaskFor(0), Route: w, PacketID: 1}
		r.AcceptFlit(f, route.West)
		now := int64(0)
		for cycle := int64(0); cycle < 10; cycle++ {
			got, _, _ := out.Deliver()
			if got != nil {
				return cycle
			}
			r.RouteCompute(now)
			r.LinkArbitrate(now)
			r.SwitchArbitrate(now)
			now++
		}
		return -1
	}
	spec, nonspec := run(false), run(true)
	if spec < 0 || nonspec < 0 {
		t.Fatalf("flit lost: %d %d", spec, nonspec)
	}
	if nonspec != spec+1 {
		t.Fatalf("non-speculative latency %d, speculative %d, want +1 (§2.3 parallel VA/SA)", nonspec, spec)
	}
}

func TestDeflectOldestFirst(t *testing.T) {
	// Two packets contending for the same output: the older one wins, the
	// younger deflects.
	routeFunc := func(tile, dst int) route.Dir {
		if dst == tile {
			return route.Local
		}
		return route.East
	}
	r := NewDeflect(0, routeFunc)
	east := link.New(link.Config{})
	north := link.New(link.Config{})
	r.SetOutLink(route.East, east)
	r.SetOutLink(route.North, north)
	old := &flit.Flit{Type: flit.HeadTail, Dst: 9, Birth: 1, PacketID: 1}
	young := &flit.Flit{Type: flit.HeadTail, Dst: 9, Birth: 5, PacketID: 2}
	r.AcceptFlit(young, route.South)
	r.AcceptFlit(old, route.West)
	r.Arbitrate(0)
	if r.Stats.Deflections != 1 {
		t.Fatalf("deflections = %d, want 1", r.Stats.Deflections)
	}
	got, _, _ := east.Deliver()
	if got == nil || got.PacketID != 1 {
		t.Fatalf("east carried %v, want packet 1 (oldest)", got)
	}
	got, _, _ = north.Deliver()
	if got == nil || got.PacketID != 2 {
		t.Fatalf("north carried %v, want deflected packet 2", got)
	}
}

func TestDeflectEjectsAtDestination(t *testing.T) {
	routeFunc := func(tile, dst int) route.Dir {
		if dst == tile {
			return route.Local
		}
		return route.East
	}
	r := NewDeflect(7, routeFunc)
	f := &flit.Flit{Type: flit.HeadTail, Dst: 7, PacketID: 3}
	r.AcceptFlit(f, route.West)
	r.Arbitrate(0)
	out := r.Eject()
	if len(out) != 1 || out[0].PacketID != 3 {
		t.Fatalf("eject = %v", out)
	}
	if r.Occupancy() != 0 {
		t.Fatalf("occupancy = %d", r.Occupancy())
	}
}

func TestDeflectLocalWaitsWhenFull(t *testing.T) {
	// With no output links attached, an injected packet must wait (no
	// panic), and CanInject stays false.
	r := NewDeflect(0, func(tile, dst int) route.Dir { return route.East })
	f := &flit.Flit{Type: flit.HeadTail, Dst: 1, PacketID: 1}
	if !r.CanInject() {
		t.Fatal("fresh deflect router not injectable")
	}
	r.AcceptFlit(f, route.Local)
	r.Arbitrate(0)
	if r.CanInject() {
		t.Fatal("stranded local packet vanished")
	}
}

func TestDeflectRejectsMultiFlit(t *testing.T) {
	r := NewDeflect(0, func(int, int) route.Dir { return route.East })
	defer func() {
		if recover() == nil {
			t.Fatal("multi-flit flit accepted by deflection router")
		}
	}()
	r.AcceptFlit(&flit.Flit{Type: flit.Head}, route.West)
}

func TestCutThroughHeadWaitsForFullBuffer(t *testing.T) {
	// Virtual cut-through: a 3-flit packet's head may not advance with
	// only 2 downstream credits, even though wormhole would move it.
	cfg := DefaultConfig(0)
	cfg.CutThrough = true
	r, _ := New(cfg)
	out := link.New(link.Config{})
	r.SetOutLink(route.East, out, 4)
	// Burn 2 credits so only 2 remain.
	r.outputs[portIndex(route.East)].credits[0] = 2
	var w route.Word
	w, _ = w.Push(route.Straight)
	w, _ = w.Push(route.Extract)
	head := &flit.Flit{Type: flit.Head, VC: 0, Mask: flit.MaskFor(0), Route: w, PacketID: 1, TotalFlits: 3}
	r.AcceptFlit(head, route.West)
	now := int64(0)
	step := func() {
		out.Deliver()
		r.RouteCompute(now)
		r.LinkArbitrate(now)
		r.SwitchArbitrate(now)
		now++
	}
	for i := 0; i < 5; i++ {
		step()
	}
	if r.Stats.SwitchMoves != 0 {
		t.Fatalf("cut-through head advanced with insufficient credits (moves=%d)", r.Stats.SwitchMoves)
	}
	// Restore credits; now it goes.
	r.HandleCredit(route.East, 0)
	for i := 0; i < 5; i++ {
		step()
	}
	if r.Stats.SwitchMoves != 1 {
		t.Fatalf("head did not advance after credits returned (moves=%d)", r.Stats.SwitchMoves)
	}
}

func TestDescribeStructure(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.ReservedVC = 7
	cfg.DatelineVCs = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := r.Describe()
	for _, want := range []string{
		"router 7", "5 input controllers", "5 output controllers",
		"8 virtual channels x 4-flit", "reservation table",
		"VC 7 reserved", "dateline VC classes",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe missing %q:\n%s", want, out)
		}
	}
}

// TestVCBufferAppendStaysInItsSlots appends one flit past the capacity of
// slab-carved VC buffers and checks the neighbouring VC's slots are
// unchanged: within one input port, across ports, and across routers.
// NewAll cuts each buffer with a full slice expression; without the
// capacity bound the append would write into the next buffer's slots.
func TestVCBufferAppendStaysInItsSlots(t *testing.T) {
	cfg := DefaultConfig(0)
	rs, err := NewAll(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	last := cfg.NumVCs - 1
	for _, tc := range []struct {
		name      string
		full, nbr *vcState
	}{
		{"next-vc", &rs[0].inputs[route.North].vcs[0], &rs[0].inputs[route.North].vcs[1]},
		{"next-port", &rs[0].inputs[route.North].vcs[last], &rs[0].inputs[route.East].vcs[0]},
		{"next-router", &rs[0].inputs[route.Local].vcs[last], &rs[1].inputs[route.North].vcs[0]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			depth := cfg.BufFlits + 1
			if got := cap(tc.full.buf); got != depth {
				t.Errorf("VC buffer capacity %d, want BufFlits+1 = %d", got, depth)
			}
			nbr := packet(1, 0, 1, route.Straight)[0]
			tc.nbr.pushBack(nbr)
			for _, f := range packet(2, 0, depth+1, route.Straight) {
				tc.full.pushBack(f)
			}
			if tc.full.bufLen() != depth+1 {
				t.Fatalf("overfilled VC holds %d flits, want %d", tc.full.bufLen(), depth+1)
			}
			if tc.nbr.bufLen() != 1 || tc.nbr.front() != nbr {
				t.Fatalf("appending past a VC's capacity overwrote the neighbouring VC: its front is packet %d seq %d, want packet %d",
					tc.nbr.front().PacketID, tc.nbr.front().Seq, nbr.PacketID)
			}
		})
	}
}
