package link

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/flit"
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
	} {
		d := checkpoint.NewDecoder(linkSection(t, c.from))
		New(c.into).RestoreState(d, nil, c.vcs)
		if err := d.Err(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}
