package link

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/flit"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestLinkArrivesNextCycle: Deliver runs at the start of each cycle and
// Send later in the same cycle, so a flit sent on cycle 0 arrives on
// cycle 1 — the one-cycle wire of every hop.
func TestLinkArrivesNextCycle(t *testing.T) {
	l := New(Config{})
	sent := &flit.Flit{Type: flit.HeadTail}
	gotCycle := -1
	for cycle := 0; cycle < 4; cycle++ {
		if f, _, _ := l.Deliver(); f != nil {
			if f != sent || gotCycle >= 0 {
				t.Fatalf("cycle %d: unexpected delivery %v", cycle, f)
			}
			gotCycle = cycle
		}
		if cycle == 0 {
			if err := l.Send(sent); err != nil {
				t.Fatal(err)
			}
			if l.InFlight() != 1 || l.Idle() {
				t.Fatalf("after send: InFlight %d, Idle %v", l.InFlight(), l.Idle())
			}
		}
	}
	if gotCycle != 1 {
		t.Fatalf("flit sent on cycle 0 arrived on cycle %d, want 1", gotCycle)
	}
	if l.InFlight() != 0 || !l.Idle() {
		t.Fatalf("after delivery: InFlight %d, Idle %v", l.InFlight(), l.Idle())
	}
}

// TestLinkOneSendPerCycle: the flit register takes one flit per cycle,
// and at serdes 1 the wire sustains a send on every cycle, each flit
// arriving in order on the next.
func TestLinkOneSendPerCycle(t *testing.T) {
	l := New(Config{})
	if err := l.Send(&flit.Flit{Seq: 0}); err != nil {
		t.Fatal(err)
	}
	if l.CanSend() {
		t.Fatal("CanSend true after a send in the same cycle")
	}
	if err := l.Send(&flit.Flit{Seq: 1}); err == nil {
		t.Fatal("second send in one cycle accepted")
	}
	recv := 0
	for cycle := 1; cycle <= 100; cycle++ {
		if f, _, _ := l.Deliver(); f != nil {
			if f.Seq != recv {
				t.Fatalf("cycle %d: flit %d arrived, want %d", cycle, f.Seq, recv)
			}
			recv++
		}
		if !l.CanSend() {
			t.Fatalf("cycle %d: full-width link not sendable after Deliver", cycle)
		}
		if err := l.Send(&flit.Flit{Seq: cycle}); err != nil {
			t.Fatal(err)
		}
	}
	if recv != 100 {
		t.Fatalf("received %d flits over 100 cycles of back-to-back sends, want 100", recv)
	}
	if l.BusyCycles != 100 {
		t.Fatalf("BusyCycles = %d, want 100", l.BusyCycles)
	}
}

// TestLinkCreditTiming: a credit queued on cycle 0 enters the reverse
// wire on cycle 1's delivery and arrives on cycle 2's; credits queued
// together leave one per cycle, in order, and a down link loses them.
func TestLinkCreditTiming(t *testing.T) {
	l := New(Config{})
	for _, vc := range []int{0, 6, 3} {
		l.SendCredit(vc)
	}
	var got []int
	var at []int
	for cycle := 1; cycle <= 5; cycle++ {
		if vc, ok := deliverCredit(l); ok {
			got = append(got, vc)
			at = append(at, cycle)
		}
	}
	if fmt.Sprint(got) != "[0 6 3]" || fmt.Sprint(at) != "[2 3 4]" {
		t.Fatalf("credits %v arrived on cycles %v, want [0 6 3] on [2 3 4]", got, at)
	}
	if !l.Idle() {
		t.Fatal("link not idle after its credits arrived")
	}
	l.SendCredit(7)
	l.SendCredit(1)
	deliverCredit(l) // 7 enters the reverse wire
	l.SetDown(true)
	for cycle := 0; cycle < 3; cycle++ {
		if vc, ok := deliverCredit(l); ok {
			t.Fatalf("down link returned credit %d", vc)
		}
	}
	if l.FaultLostCredits != 2 {
		t.Fatalf("FaultLostCredits = %d, want 2", l.FaultLostCredits)
	}
}

// deliverCredit runs one Deliver and reports the credit it returned.
func deliverCredit(l *Link) (int, bool) {
	_, vc, ok := l.Deliver()
	return vc, ok
}

func TestPhysCleanTraversal(t *testing.T) {
	p := NewPhys(256, 1, nil)
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	out := p.Traverse(data, 32)
	if !bytes.Equal(out, data) {
		t.Fatalf("clean link corrupted data: %x", out)
	}
	if p.BitErrors != 0 || p.Traversals != 1 {
		t.Fatalf("stats wrong: %+v", p)
	}
}

func TestPhysHardFaultCorrupts(t *testing.T) {
	p := NewPhys(32, 1, nil)
	if err := p.InjectHardFault(5); err != nil {
		t.Fatal(err)
	}
	data := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	out := p.Traverse(data, 32)
	if getBit(out, 5) {
		t.Fatal("stuck-at-zero wire delivered a 1")
	}
	if p.BitErrors == 0 {
		t.Fatal("bit error not counted")
	}
}

func TestPhysSteeringHealsSingleFault(t *testing.T) {
	// §2.5: after test, steering shifts all bits above the fault one
	// position onto the spare; data then passes intact.
	rng := rand.New(rand.NewSource(1))
	for wire := 0; wire < 33; wire++ {
		p := NewPhys(32, 1, nil)
		if err := p.InjectHardFault(wire); err != nil {
			t.Fatal(err)
		}
		if err := p.ProgramSteering(); err != nil {
			t.Fatalf("wire %d: %v", wire, err)
		}
		for trial := 0; trial < 20; trial++ {
			data := make([]byte, 4)
			rng.Read(data)
			out := p.Traverse(data, 32)
			if !bytes.Equal(out, data) {
				t.Fatalf("wire %d: steering failed: in %x out %x", wire, data, out)
			}
		}
		if p.BitErrors != 0 {
			t.Fatalf("wire %d: residual errors %d", wire, p.BitErrors)
		}
	}
}

func TestPhysSteeringValidation(t *testing.T) {
	p := NewPhys(8, 1, nil)
	if err := p.ProgramSteering(); err == nil {
		t.Error("steering with no fault accepted")
	}
	if err := p.InjectHardFault(99); err == nil {
		t.Error("out-of-range fault accepted")
	}
	_ = p.InjectHardFault(2)
	_ = p.InjectHardFault(2) // duplicate is a no-op
	_ = p.InjectHardFault(5)
	if err := p.ProgramSteering(); err == nil {
		t.Error("two faults with one spare accepted")
	}
	q := NewPhys(8, 0, nil)
	_ = q.InjectHardFault(1)
	if err := q.ProgramSteering(); err == nil {
		t.Error("steering without spare accepted")
	}
}

func TestPhysTransientFlips(t *testing.T) {
	p := NewPhys(64, 0, sim.NewStream(7, 0))
	p.TransientProb = 1.0 // every traversal flips one bit
	data := make([]byte, 8)
	out := p.Traverse(data, 64)
	diff := 0
	for i := 0; i < 64; i++ {
		if getBit(out, i) != getBit(data, i) {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("transient flipped %d bits, want 1", diff)
	}
}

func TestECCRoundTripClean(t *testing.T) {
	data := []byte{0x12, 0x34, 0x56, 0x78}
	w := ECCEncode(data, 32)
	out, res := w.Decode()
	if res != ECCClean {
		t.Fatalf("clean decode result %v", res)
	}
	if !bytes.Equal(out[:4], data) {
		t.Fatalf("round trip mismatch: %x", out)
	}
}

// Property: ECC corrects any single-bit error in the codeword.
func TestECCSingleErrorCorrectedProperty(t *testing.T) {
	f := func(raw []byte, pos uint16) bool {
		if len(raw) == 0 {
			raw = []byte{0}
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		bits := len(raw) * 8
		w := ECCEncode(raw, bits)
		w.Flip(int(pos) % w.Len())
		out, res := w.Decode()
		if res != ECCCorrected && res != ECCClean {
			return false
		}
		return bytes.Equal(out[:len(raw)], raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: double errors in the Hamming word are detected, never silently
// miscorrected into "clean".
func TestECCDoubleErrorDetectedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 1+rng.Intn(32))
		rng.Read(data)
		bits := len(data) * 8
		w := ECCEncode(data, bits)
		a := 1 + rng.Intn(w.Len()-1)
		b := 1 + rng.Intn(w.Len()-1)
		if a == b {
			continue
		}
		w.Flip(a)
		w.Flip(b)
		_, res := w.Decode()
		if res != ECCDetected {
			t.Fatalf("double error (%d,%d) classified %v", a, b, res)
		}
	}
}

func TestPhysECCMasksTransients(t *testing.T) {
	rng := sim.NewStream(11, 0)
	p := NewPhys(256, 0, rng)
	p.TransientProb = 1.0
	p.ECC = true
	for i := 0; i < 100; i++ {
		data := make([]byte, 32)
		rng.Read(data)
		out := p.Traverse(data, 256)
		if !bytes.Equal(out, data) {
			t.Fatalf("ECC failed to mask transient on trial %d", i)
		}
	}
	if p.BitErrors != 0 {
		t.Fatalf("residual bit errors with ECC: %d", p.BitErrors)
	}
	if p.CorrectedFlits == 0 {
		t.Fatal("no corrections recorded")
	}
}

func TestLinkSerdesOccupancy(t *testing.T) {
	// A link with SerdesCycles=4 (e.g. 64-bit wires carrying 256-bit
	// flits, §3.3) accepts one flit per 4 cycles.
	l := New(Config{SerdesCycles: 4})
	f := &flit.Flit{Type: flit.HeadTail}
	if !l.CanSend() {
		t.Fatal("fresh link not sendable")
	}
	if err := l.Send(f); err != nil {
		t.Fatal(err)
	}
	sendable := 0
	for cycle := 1; cycle <= 4; cycle++ {
		l.Deliver()
		if l.CanSend() {
			sendable++
		}
	}
	if sendable != 1 {
		t.Fatalf("link sendable on %d of 4 cycles, want 1", sendable)
	}
	if l.BusyCycles != 4 {
		t.Fatalf("serialized link busy for %d of 4 cycles, want 4", l.BusyCycles)
	}
}

func TestLinkDeliverAndCredits(t *testing.T) {
	l := New(Config{})
	f := &flit.Flit{Type: flit.HeadTail, Data: []byte{1, 2}}
	if err := l.Send(f); err != nil {
		t.Fatal(err)
	}
	l.SendCredit(3)
	l.SendCredit(5)
	got, vc, credited := l.Deliver()
	if got == nil {
		t.Fatal("flit not delivered after one cycle")
	}
	if credited {
		// Credits sent on cycle t enter the reverse wire on cycle t+1 and
		// arrive on t+2; only one per cycle.
		t.Fatalf("credit %d arrived instantly", vc)
	}
	if _, vc, credited = l.Deliver(); !credited || vc != 3 {
		t.Fatalf("first credit = %d (%v), want 3", vc, credited)
	}
	if _, vc, credited = l.Deliver(); !credited || vc != 5 {
		t.Fatalf("second credit = %d (%v), want 5", vc, credited)
	}
	// The link counts what it carried: flits, the heads among them, and
	// the credits that arrived upstream.
	if err := l.Send(&flit.Flit{Type: flit.Body}); err != nil {
		t.Fatal(err)
	}
	l.Deliver()
	if want := (telemetry.LinkCounts{Flits: 2, HeadFlits: 1, Credits: 2}); l.LinkCounts != want {
		t.Fatalf("counts %+v, want %+v", l.LinkCounts, want)
	}
}

func TestLinkAppliesPhys(t *testing.T) {
	phys := NewPhys(16, 1, nil)
	_ = phys.InjectHardFault(0)
	l := New(Config{})
	l.Phys = phys
	f := &flit.Flit{Type: flit.HeadTail, Data: []byte{0xFF, 0xFF}}
	if err := l.Send(f); err != nil {
		t.Fatal(err)
	}
	got, _, _ := l.Deliver()
	if got.Data[0]&1 != 0 {
		t.Fatal("hard fault not applied through link")
	}
	if f.Data[0] != 0xFF {
		t.Fatal("link mutated the sender's flit")
	}
}

func TestLinkSendWhileBusyFails(t *testing.T) {
	l := New(Config{SerdesCycles: 2})
	l.From, l.Dir = 5, route.East
	if err := l.Send(&flit.Flit{}); err != nil {
		t.Fatal(err)
	}
	err := l.Send(&flit.Flit{})
	if err == nil {
		t.Fatal("send while busy accepted")
	}
	// The link is named by its sending tile and direction.
	if !strings.Contains(err.Error(), "link 5-E") {
		t.Fatalf("error %q does not name link 5-E", err)
	}
}

func TestPhysMultiSpareSteering(t *testing.T) {
	// §2.5 footnote: "If yield analysis indicates that more than one spare
	// bit is required, multiple spare bits can be provided using the same
	// method."
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		spares := 2 + rng.Intn(3)
		p := NewPhys(64, spares, nil)
		faults := 2 + rng.Intn(spares-1)
		for i := 0; i < faults; i++ {
			for {
				w := rng.Intn(64 + spares)
				if !p.wireDead(w) {
					_ = p.InjectHardFault(w)
					break
				}
			}
		}
		if err := p.ProgramSteering(); err != nil {
			t.Fatalf("trial %d (%d faults, %d spares): %v", trial, faults, spares, err)
		}
		data := make([]byte, 8)
		rng.Read(data)
		out := p.Traverse(data, 64)
		if !bytes.Equal(out, data) {
			t.Fatalf("trial %d: multi-spare steering corrupted data", trial)
		}
	}
}

func TestPhysMultiSpareTooManyFaults(t *testing.T) {
	p := NewPhys(16, 2, nil)
	for _, w := range []int{1, 5, 9} {
		_ = p.InjectHardFault(w)
	}
	if err := p.ProgramSteering(); err == nil {
		t.Fatal("3 faults with 2 spares accepted")
	}
	if p.SteeringProgrammed() {
		t.Fatal("failed programming left steering active")
	}
}

func TestPhysSteeringProgrammedFlag(t *testing.T) {
	p := NewPhys(16, 2, nil)
	if p.SteeringProgrammed() {
		t.Fatal("fresh phys reports steering")
	}
	_ = p.InjectHardFault(3)
	_ = p.InjectHardFault(7)
	if err := p.ProgramSteering(); err != nil {
		t.Fatal(err)
	}
	if !p.SteeringProgrammed() {
		t.Fatal("steering flag not set")
	}
}
