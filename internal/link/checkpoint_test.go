package link

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/flit"
	"repro/internal/sim"
)

// linkSection returns the payload l.SaveState writes, read back through
// the container so it is exactly what a restore decodes.
func linkSection(tb testing.TB, l *Link) []byte {
	tb.Helper()
	b := checkpoint.NewBuilder(0, 0)
	l.SaveState(b.Section("link"))
	f, err := checkpoint.Parse(b.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	d, err := f.Section("link")
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]byte, d.Remaining())
	for i := range out {
		out[i] = d.U8()
	}
	return out
}

// loadedLink is a link with a flit in its register, a credit on its
// reverse wire and one more credit queued behind it.
func loadedLink(tb testing.TB) *Link {
	tb.Helper()
	l := New(Config{})
	l.SendCredit(5)
	l.SendCredit(2)
	l.Deliver() // 5 enters the reverse wire
	if err := l.Send(&flit.Flit{Type: flit.HeadTail, VC: 3, PacketID: 77, Data: []byte{0xAB, 0xCD}}); err != nil {
		tb.Fatal(err)
	}
	return l
}

// physLink is a link over 64 data wires and two spares with wires 3 and
// 65 dead and a lane map steering around both, a transient flip on half
// the traversals, and a payload flit on its wire after five traversals.
func physLink(tb testing.TB) *Link {
	tb.Helper()
	l := New(Config{})
	l.Phys = NewPhys(64, 2, sim.NewStream(5, sim.WireStream+1))
	for _, w := range []int{3, 65} {
		if err := l.Phys.InjectHardFault(w); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Phys.ProgramSteering(); err != nil {
		tb.Fatal(err)
	}
	l.Phys.TransientProb = 0.5
	for i := 0; i < 6; i++ {
		if err := l.Send(&flit.Flit{Type: flit.HeadTail, Data: bytes.Repeat([]byte{byte(i)}, 8)}); err != nil {
			tb.Fatal(err)
		}
		if i < 5 {
			l.Deliver()
		}
	}
	return l
}

// TestLinkCheckpointPhys: a link over physical wires, restored into one
// whose wire layer is fresh, runs ECC and draws another stream, carries
// its dead wires, steering, flip probability, ECC flag, counters and
// stream, so both deliver the same payloads and count the same from then
// on.
func TestLinkCheckpointPhys(t *testing.T) {
	orig := physLink(t)
	l := New(Config{})
	l.Phys = NewPhys(64, 2, sim.NewStream(9, sim.WireStream))
	l.Phys.ECC = true
	d := checkpoint.NewDecoder(linkSection(t, orig))
	l.RestoreState(d, nil, 8)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wiring := func(p *Phys) string { return fmt.Sprint(p.deadWires, p.steerAt, p.laneMap, p.TransientProb, p.ECC) }
	if got, want := wiring(l.Phys), wiring(orig.Phys); got != want {
		t.Errorf("restored wiring %s, want %s", got, want)
	}
	for i := 0; i < 20; i++ {
		a, _, _ := orig.Deliver()
		b, _, _ := l.Deliver()
		if !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("traversal %d: restored link delivered %x, want %x", i, b.Data, a.Data)
		}
		for _, x := range []*Link{orig, l} {
			if err := x.Send(&flit.Flit{Type: flit.HeadTail, Data: bytes.Repeat([]byte{0xA5}, 8)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	counts := func(p *Phys) [4]int64 { return [4]int64{p.Traversals, p.BitErrors, p.CorrectedFlits, p.DetectedFlits} }
	if got, want := counts(l.Phys), counts(orig.Phys); got != want {
		t.Errorf("restored wire counters %v, want %v", got, want)
	}
	if orig.Phys.BitErrors == 0 {
		t.Error("no bit flipped: the stream went unexercised")
	}
}

// TestLinkCheckpointRoundTrip: a fresh link restored from a saved one
// returns the same flit and credit on its next Deliver, then the queued
// credit on the one after.
func TestLinkCheckpointRoundTrip(t *testing.T) {
	data := linkSection(t, loadedLink(t))
	l := New(Config{})
	d := checkpoint.NewDecoder(data)
	l.RestoreState(d, nil, 8)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Idle() || l.CanSend() || l.InFlight() != 1 {
		t.Fatalf("restored link: Idle %v, CanSend %v, InFlight %d", l.Idle(), l.CanSend(), l.InFlight())
	}
	f, vc, credited := l.Deliver()
	if f == nil || f.PacketID != 77 || f.VC != 3 || string(f.Data) != "\xAB\xCD" {
		t.Fatalf("restored link delivered flit %+v, want packet 77 on VC 3", f)
	}
	if !credited || vc != 5 {
		t.Fatalf("restored link delivered credit %d (%v), want 5", vc, credited)
	}
	if _, vc, credited = l.Deliver(); !credited || vc != 2 {
		t.Fatalf("queued credit = %d (%v), want 2", vc, credited)
	}
	if !l.Idle() {
		t.Fatal("restored link not idle once drained")
	}
}

// TestLinkRestoreRejectsBadState: a flit or credit naming a VC the
// receiver does not have fails the restore instead of reaching a router,
// as do credits on an elastic channel and a serdes countdown longer than
// the link's, either of which would keep the link from going idle, and a
// section saved from a link of the other kind.
func TestLinkRestoreRejectsBadState(t *testing.T) {
	queued := New(Config{})
	queued.SendCredit(9)
	elastic := New(Config{Elastic: true})
	elastic.SendCredit(1)
	narrow := New(Config{SerdesCycles: 3})
	if err := narrow.Send(&flit.Flit{Type: flit.HeadTail}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		from *Link
		into Config
		vcs  int
		want string
	}{
		{"flit VC", loadedLink(t), Config{}, 3, "flit on the wire names VC 3"},
		{"wire credit VC", loadedLink(t), Config{}, 4, "credit on the wire names VC 5"},
		{"wire credit VC at the limit", loadedLink(t), Config{}, 5, "credit on the wire names VC 5"},
		{"queued credit VC", queued, Config{}, 8, "queued credit names VC 9"},
		{"elastic credits", elastic, Config{Elastic: true}, 8, "elastic channel carries credits"},
		{"busy countdown", narrow, Config{}, 8, "busy countdown 3 outside [0, 1]"},
		{"credit link into elastic", New(Config{}), Config{Elastic: true}, 8, "elastic mismatch"},
		{"wires into an ideal link", physLink(t), Config{}, 8, "physical wire layer mismatch"},
		{"dead wire past the bundle", physLink(t), Config{}, 8, "dead wire 65 outside [0, 65)"},
		{"lane map of another width", physLink(t), Config{}, 8, "lane map of 64 lanes, want 32"},
	} {
		d := checkpoint.NewDecoder(linkSection(t, c.from))
		into := New(c.into)
		switch c.name {
		case "dead wire past the bundle":
			into.Phys = NewPhys(64, 1, nil)
		case "lane map of another width":
			into.Phys = NewPhys(32, 34, nil)
		}
		into.RestoreState(d, nil, c.vcs)
		if err := d.Err(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}
