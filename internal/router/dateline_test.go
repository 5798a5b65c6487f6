package router

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/route"
)

func datelineRouter(t *testing.T) *Router {
	t.Helper()
	cfg := DefaultConfig(0)
	cfg.DatelineVCs = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDatelineRequiresEvenVCs(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.DatelineVCs = true
	cfg.NumVCs = 7
	if _, err := New(cfg); err == nil {
		t.Fatal("odd VC count accepted with dateline classes")
	}
}

func TestDownstreamClass(t *testing.T) {
	r := datelineRouter(t)
	east := &r.outputs[portIndex(route.East)]
	north := &r.outputs[portIndex(route.North)]
	f := &flit.Flit{}

	// Fresh packet continuing straight: low class.
	if r.downstreamClass(route.West, east, f) {
		t.Error("unwrapped straight-through packet classed high")
	}
	// Crossing a dateline link: high class.
	east.dateline = true
	if !r.downstreamClass(route.West, east, f) {
		t.Error("dateline crossing not classed high")
	}
	east.dateline = false
	// Wrapped packet continuing in the same dimension: high.
	f.Wrapped = true
	if !r.downstreamClass(route.West, east, f) {
		t.Error("wrapped same-dimension packet not classed high")
	}
	// Wrapped packet turning into the other dimension: class resets.
	if r.downstreamClass(route.West, north, f) {
		t.Error("turn did not reset the dateline class")
	}
	// Injection is always a fresh dimension.
	if r.downstreamClass(route.Local, east, f) {
		t.Error("injected packet classed high")
	}
	// Without dateline VCs the class is always low.
	plain, _ := New(DefaultConfig(0))
	pe := &plain.outputs[portIndex(route.East)]
	pe.dateline = true
	if plain.downstreamClass(route.West, pe, f) {
		t.Error("dateline class active without DatelineVCs")
	}
}

func TestChooseVCClasses(t *testing.T) {
	r := datelineRouter(t)
	oc := &r.outputs[portIndex(route.East)]
	for v := range oc.credits {
		oc.credits[v] = 4
	}
	r.rebuildMasks()
	// Mask bit 0 grants the pair {0, 4}: low class gets 0, high class 4.
	if got := r.chooseVC(oc, flit.MaskFor(0), false); got != 0 {
		t.Fatalf("low-class VC = %d, want 0", got)
	}
	if got := r.chooseVC(oc, flit.MaskFor(0), true); got != 4 {
		t.Fatalf("high-class VC = %d, want 4", got)
	}
	// A mask bit in the upper half also grants the pair.
	if got := r.chooseVC(oc, flit.MaskFor(5), false); got != 1 {
		t.Fatalf("bit-5 low-class VC = %d, want 1", got)
	}
	// Busy low VC of the pair: no low-class choice remains for this mask.
	oc.vcOwner[0] = 99
	r.rebuildMasks()
	if got := r.chooseVC(oc, flit.MaskFor(0), false); got != -1 {
		t.Fatalf("busy pair granted VC %d", got)
	}
	// High class is unaffected.
	if got := r.chooseVC(oc, flit.MaskFor(0), true); got != 4 {
		t.Fatalf("high-class VC after low busy = %d", got)
	}
}

func TestReservedPairExclusion(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.DatelineVCs = true
	cfg.ReservedVC = 7 // pair 3 = VCs {3, 7}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oc := &r.outputs[portIndex(route.East)]
	for v := range oc.credits {
		oc.credits[v] = 4
	}
	r.rebuildMasks()
	// A mask granting only the reserved pair yields nothing for dynamic
	// traffic in either class.
	if got := r.chooseVC(oc, flit.MaskFor(3)|flit.MaskFor(7), false); got != -1 {
		t.Fatalf("reserved pair granted low VC %d", got)
	}
	if got := r.chooseVC(oc, flit.MaskFor(3)|flit.MaskFor(7), true); got != -1 {
		t.Fatalf("reserved pair granted high VC %d", got)
	}
	if !r.reservedPair(3) || !r.reservedPair(7) || r.reservedPair(2) {
		t.Fatal("reservedPair membership wrong")
	}
}

func TestIsPriorityPairs(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.DatelineVCs = true
	cfg.PriorityVCs = flit.MaskFor(7) // pair 3
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.isPriority(7) || !r.isPriority(3) {
		t.Fatal("priority pair not recognized in both classes")
	}
	if r.isPriority(0) || r.isPriority(4) {
		t.Fatal("non-priority VC classed priority")
	}
	// Without dateline classes, only the literal bit counts.
	cfg2 := DefaultConfig(0)
	cfg2.PriorityVCs = flit.MaskFor(7)
	r2, _ := New(cfg2)
	if r2.isPriority(3) {
		t.Fatal("pair semantics leaked into plain mode")
	}
	if !r2.isPriority(7) {
		t.Fatal("literal priority bit ignored")
	}
}

func TestWrappedBitMaintenance(t *testing.T) {
	// A flit crossing a dateline link gets Wrapped set; turning into the
	// other dimension clears it.
	r := datelineRouter(t)
	out := link.New(link.Config{})
	out.Dir = route.East
	r.SetOutLink(route.East, out, 4)
	r.SetDateline(route.East, true)
	var w route.Word
	w, _ = w.Push(route.Straight) // from west input heading east
	w, _ = w.Push(route.Extract)
	f := &flit.Flit{Type: flit.HeadTail, VC: 0, Mask: flit.MaskFor(0), Route: w, PacketID: 1}
	r.AcceptFlit(f, route.West)
	now := int64(0)
	for i := 0; i < 4; i++ {
		got, _, _ := out.Deliver()
		if got != nil {
			if !got.Wrapped {
				t.Fatal("dateline crossing did not set Wrapped")
			}
			if got.VC < 4 {
				t.Fatalf("dateline flit allocated low-class VC %d", got.VC)
			}
			return
		}
		r.RouteCompute(now)
		r.LinkArbitrate(now)
		r.SwitchArbitrate(now)
		now++
	}
	t.Fatal("flit never crossed the link")
}

func TestCanAccept(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.BufFlits = 1
	r, _ := New(cfg)
	if !r.CanAccept(route.West, 0) {
		t.Fatal("empty buffer rejects")
	}
	r.AcceptFlit(&flit.Flit{Type: flit.HeadTail, VC: 0, Mask: flit.MaskFor(0)}, route.West)
	if r.CanAccept(route.West, 0) {
		t.Fatal("full buffer accepts")
	}
	if r.CanAccept(route.West, 99) || r.CanAccept(route.West, -1) {
		t.Fatal("invalid VC accepted")
	}
}
