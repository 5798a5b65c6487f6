package link

import (
	"testing"

	"repro/internal/flit"
)

// TestPhysECCDoubleHardFaultDetected drives the detected-but-uncorrectable
// path through the transport layer: two stuck-at-zero data lanes corrupt
// two codeword bits of the same flit, SECDED flags the word rather than
// miscorrecting it, and the link accounts it under DetectedFlits.
func TestPhysECCDoubleHardFaultDetected(t *testing.T) {
	p := NewPhys(32, 2, nil)
	p.ECC = true
	for _, w := range []int{3, 9} {
		if err := p.InjectHardFault(w); err != nil {
			t.Fatal(err)
		}
	}
	data := []byte{0xFF, 0xFF, 0xFF, 0xFF} // both faulted lanes carry a 1
	out := p.Traverse(data, 32)
	if p.DetectedFlits != 1 {
		t.Fatalf("DetectedFlits = %d, want 1", p.DetectedFlits)
	}
	if p.CorrectedFlits != 0 {
		t.Fatalf("double error was 'corrected' (%d flits)", p.CorrectedFlits)
	}
	if p.BitErrors < 2 {
		t.Fatalf("BitErrors = %d, want >= 2 residual errors", p.BitErrors)
	}
	if getBit(out, 3) && getBit(out, 9) {
		t.Fatal("stuck-at-zero lanes delivered 1s without correction")
	}
}

// A single stuck-at-zero lane, by contrast, must be transparently healed
// by ECC: same transport path, corrected not detected.
func TestPhysECCCorrectsSingleHardFault(t *testing.T) {
	p := NewPhys(32, 2, nil)
	p.ECC = true
	if err := p.InjectHardFault(3); err != nil {
		t.Fatal(err)
	}
	data := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	out := p.Traverse(data, 32)
	if p.CorrectedFlits != 1 || p.DetectedFlits != 0 {
		t.Fatalf("Corrected=%d Detected=%d, want 1,0", p.CorrectedFlits, p.DetectedFlits)
	}
	if p.BitErrors != 0 {
		t.Fatalf("residual BitErrors = %d after correction", p.BitErrors)
	}
	if !getBit(out, 3) {
		t.Fatal("corrected payload lost the faulted bit")
	}
}

// TestLinkDownDropsTraffic checks the fail-stop fence: a dead link keeps
// accepting flits and credits (the sender cannot tell) but delivers
// nothing, counting the losses in both directions.
func TestLinkDownDropsTraffic(t *testing.T) {
	l := New(Config{})
	if l.Down() {
		t.Fatal("new link reports down")
	}
	l.SetDown(true)
	if !l.Down() {
		t.Fatal("SetDown(true) not reported")
	}
	if !l.CanSend() {
		t.Fatal("down link must still accept sends")
	}
	if err := l.Send(&flit.Flit{Type: flit.Head, VC: 0}); err != nil {
		t.Fatal(err)
	}
	l.SendCredit(2)
	f, vc, credited := l.Deliver() // flit completes; credit enters the reverse wire
	if f != nil || credited {
		t.Fatalf("down link delivered flit=%v credit=%d (%v)", f, vc, credited)
	}
	if _, vc, credited = l.Deliver(); credited { // credit completes
		t.Fatalf("down link returned credit %d", vc)
	}
	if l.FaultLostFlits != 1 || l.FaultLostCredits != 1 {
		t.Fatalf("lost flits=%d credits=%d, want 1,1", l.FaultLostFlits, l.FaultLostCredits)
	}

	// Revival (used only by tests and revocable injections): traffic flows
	// again.
	l.SetDown(false)
	if err := l.Send(&flit.Flit{Type: flit.Tail, VC: 1}); err != nil {
		t.Fatal(err)
	}
	l.busy = 0 // ignore serdes spacing for the probe
	if f, _, _ = l.Deliver(); f == nil || f.Type != flit.Tail {
		t.Fatalf("revived link lost flit, got %v", f)
	}
}

// TestElasticLinkDownDropsHead: the elastic variant drains its repeater
// stage into the void while down, so in-flight flits are lost one per
// cycle.
func TestElasticLinkDownDropsHead(t *testing.T) {
	l := New(Config{Elastic: true})
	if err := l.Send(&flit.Flit{Type: flit.Head}); err != nil {
		t.Fatal(err)
	}
	l.SetDown(true)
	accepted := 0
	accept := func(*flit.Flit) bool { accepted++; return true }
	// The first delivery drops the flit; the rest find the stage empty.
	for i := 0; i < 3; i++ {
		if f := l.DeliverElastic(accept); f != nil {
			t.Fatalf("cycle %d: down elastic link delivered %v", i, f)
		}
	}
	if accepted != 0 {
		t.Fatal("down elastic link offered a flit to the receiver")
	}
	if l.FaultLostFlits != 1 {
		t.Fatalf("FaultLostFlits = %d, want 1", l.FaultLostFlits)
	}
	if l.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drop", l.InFlight())
	}
}
