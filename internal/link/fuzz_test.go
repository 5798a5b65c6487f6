package link

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/flit"
	"repro/internal/sim"
)

// FuzzECC fuzzes the SECDED code: any payload round-trips clean, and any
// single-bit corruption is corrected back to the original.
func FuzzECC(f *testing.F) {
	f.Add([]byte("route packets"), uint16(3))
	f.Add([]byte{0}, uint16(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 32), uint16(100))
	f.Fuzz(func(t *testing.T, data []byte, flipPos uint16) {
		if len(data) == 0 || len(data) > 32 {
			return
		}
		bits := len(data) * 8
		w := ECCEncode(data, bits)
		out, res := w.Decode()
		if res != ECCClean || !bytes.Equal(out[:len(data)], data) {
			t.Fatalf("clean round trip failed: %v %x", res, out)
		}
		w2 := ECCEncode(data, bits)
		w2.Flip(int(flipPos) % w2.Len())
		out2, res2 := w2.Decode()
		if res2 == ECCDetected {
			t.Fatalf("single flip reported uncorrectable")
		}
		if !bytes.Equal(out2[:len(data)], data) {
			t.Fatalf("single flip not corrected: %x vs %x", out2, data)
		}
	})
}

// FuzzSteering fuzzes spare-bit steering: for any single hard fault and
// payload, programmed steering must deliver the payload intact.
func FuzzSteering(f *testing.F) {
	f.Add([]byte{0xA5, 0x5A}, uint16(5))
	f.Add([]byte{1}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, wire uint16) {
		if len(data) == 0 || len(data) > 32 {
			return
		}
		bits := len(data) * 8
		p := NewPhys(bits, 1, nil)
		w := int(wire) % (bits + 1)
		if err := p.InjectHardFault(w); err != nil {
			t.Fatal(err)
		}
		if err := p.ProgramSteering(); err != nil {
			t.Fatal(err)
		}
		out := p.Traverse(data, bits)
		if !bytes.Equal(out, data) {
			t.Fatalf("steered link corrupted %x -> %x (fault at %d)", data, out, w)
		}
	})
}

// FuzzLinkRestore decodes fuzzed section bytes into a credit link, an
// elastic link and a credit link over physical wires, each serialized
// over two cycles per flit. Each restore must either fail with a decoder
// error or leave a link a live one could be: every credit and flit it
// delivers names one of the receiver's VCs, it goes idle within the
// cycles its restored traffic needs (carrying any payload through the
// restored wire layer), and a flit and credit sent afterwards arrive on
// time (or are lost, if the link was restored down). Seeds are a link
// with a flit and credits on its wires, an idle link, an elastic link
// holding a flit, and a physical-wire link with a dead wire steered
// around, transient flips and a payload on its wire.
func FuzzLinkRestore(f *testing.F) {
	const numVCs = 8
	f.Add(linkSection(f, loadedLink(f)))
	f.Add(linkSection(f, New(Config{})))
	elastic := New(Config{Elastic: true})
	if err := elastic.Send(&flit.Flit{Type: flit.Head, VC: 7}); err != nil {
		f.Fatal(err)
	}
	f.Add(linkSection(f, elastic))
	f.Add(linkSection(f, physLink(f)))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []struct{ el, phys bool }{{false, false}, {true, false}, {false, true}} {
			el := v.el
			l := New(Config{SerdesCycles: 2, Elastic: el})
			if v.phys {
				l.Phys = NewPhys(64, 2, sim.NewStream(1, sim.WireStream))
			}
			d := checkpoint.NewDecoder(data)
			l.RestoreState(d, nil, numVCs)
			if d.Err() != nil {
				continue
			}
			deliver := func() (*flit.Flit, int, bool) {
				if el {
					return l.DeliverElastic(func(*flit.Flit) bool { return true }), 0, false
				}
				return l.Deliver()
			}
			// The restored credits leave one per cycle behind the one on
			// the wire; the flit and the serdes countdown clear sooner.
			limit := len(data)/8 + l.SerdesCycles + 2
			for cycle := 0; cycle < limit && !l.Idle(); cycle++ {
				f, vc, credited := deliver()
				if credited && (vc < 0 || vc >= numVCs) {
					t.Fatalf("elastic=%v: delivered credit for VC %d", el, vc)
				}
				if f != nil && (f.VC < 0 || f.VC >= numVCs) {
					t.Fatalf("elastic=%v: delivered a flit on VC %d", el, f.VC)
				}
			}
			if !l.Idle() {
				t.Fatalf("elastic=%v: restored link not idle after %d cycles", el, limit)
			}
			if err := l.Send(&flit.Flit{Type: flit.HeadTail, VC: 1, PacketID: 9}); err != nil {
				t.Fatalf("elastic=%v: idle link refused a send: %v", el, err)
			}
			if !el {
				l.SendCredit(4)
			}
			// A link restored down loses both, as a live dead link does.
			live := !l.Down()
			if f, _, _ := deliver(); (f != nil) != live || f != nil && f.PacketID != 9 {
				t.Fatalf("elastic=%v down=%v: flit sent on an idle link arrived as %v", el, !live, f)
			}
			if _, vc, credited := deliver(); !el && (credited != live || credited && vc != 4) {
				t.Fatalf("down=%v: credit sent on an idle link arrived as %d (%v)", !live, vc, credited)
			}
		}
	})
}
