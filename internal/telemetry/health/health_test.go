package health

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/route"
)

func verdict(t *testing.T, m *Monitor, detector string) Verdict {
	t.Helper()
	for _, v := range m.Verdicts() {
		if v.Detector == detector {
			return v
		}
	}
	t.Fatalf("no verdict for %q", detector)
	return Verdict{}
}

func TestVerdictOrderAndDefaults(t *testing.T) {
	m := New(Config{})
	cfg := m.Config()
	if cfg.DeadlockWindow != DefaultDeadlockWindow || cfg.StarveAge != DefaultStarveAge ||
		cfg.CollapseWindows != DefaultCollapseWindows || cfg.CollapseTolerance != DefaultCollapseTolerance {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	vs := m.Verdicts()
	want := []string{DetectorDeadlock, DetectorStarvation, DetectorCongestion}
	if len(vs) != len(want) {
		t.Fatalf("got %d verdicts", len(vs))
	}
	for i, v := range vs {
		if v.Detector != want[i] {
			t.Fatalf("verdict %d = %q, want %q", i, v.Detector, want[i])
		}
		if !v.Healthy {
			t.Fatalf("fresh monitor unhealthy: %+v", v)
		}
	}
	if !m.Healthy() {
		t.Fatal("fresh monitor not Healthy()")
	}
}

func TestDeadlockFiresAfterWindowAndNamesCycle(t *testing.T) {
	m := New(Config{DeadlockWindow: 100})
	// A two-VC wait-for loop over the East/West ports between tiles 1 and
	// 2: each entry's (DownTile, OutPort.Opposite(), OutVC) resolves to
	// the other's (Tile, Port, VC).
	cycleWaiting := []VCWait{
		{Tile: 1, Port: route.East, VC: 0, Age: 400, Routed: true, OutPort: route.East, OutVC: 0, DownTile: 2},
		{Tile: 2, Port: route.West, VC: 0, Age: 400, Routed: true, OutPort: route.West, OutVC: 0, DownTile: 1},
	}
	if ev := m.Observe(Sample{Cycle: 0, EjectedFlits: 10, BufOcc: 4}); len(ev) != 0 {
		t.Fatalf("first sample produced events: %v", ev)
	}
	// No new ejections with flits buffered: the stretch starts at cycle 50.
	if ev := m.Observe(Sample{Cycle: 50, EjectedFlits: 10, BufOcc: 4, Waiting: cycleWaiting}); len(ev) != 0 {
		t.Fatalf("window not elapsed but events fired: %v", ev)
	}
	ev := m.Observe(Sample{Cycle: 200, EjectedFlits: 10, BufOcc: 4, Waiting: cycleWaiting})
	if len(ev) != 1 || ev[0].Detector != DetectorDeadlock || ev[0].Healthy {
		t.Fatalf("expected deadlock event, got %v", ev)
	}
	v := verdict(t, m, DetectorDeadlock)
	if v.Healthy {
		t.Fatal("deadlock verdict still healthy")
	}
	if !strings.Contains(v.Detail, "cycle of waiting VCs") ||
		!strings.Contains(v.Detail, "t1:E.vc0") || !strings.Contains(v.Detail, "t2:W.vc0") {
		t.Fatalf("cycle attribution missing from detail: %q", v.Detail)
	}
	if v.Since != 50 {
		t.Fatalf("Since = %d, want 50 (first stuck observation)", v.Since)
	}
	// Progress clears it.
	ev = m.Observe(Sample{Cycle: 300, EjectedFlits: 14, BufOcc: 2})
	if len(ev) != 1 || ev[0].Detector != DetectorDeadlock || !ev[0].Healthy {
		t.Fatalf("expected recovery event, got %v", ev)
	}
	if !m.Healthy() {
		t.Fatal("monitor unhealthy after recovery")
	}
}

func TestDeadlockPrefersWedgedAttribution(t *testing.T) {
	m := New(Config{DeadlockWindow: 10})
	waiting := []VCWait{
		{Tile: 5, Port: route.North, VC: 2, Age: 900, Routed: true, OutPort: route.East, OutVC: 1, DownTile: 6, Stuck: true},
		{Tile: 4, Port: route.West, VC: 0, Age: 100, Routed: true, OutPort: route.East, OutVC: 2, DownTile: 5},
	}
	m.Observe(Sample{Cycle: 0, EjectedFlits: 3, BufOcc: 7})
	m.Observe(Sample{Cycle: 20, EjectedFlits: 3, BufOcc: 7, Waiting: waiting})
	ev := m.Observe(Sample{Cycle: 40, EjectedFlits: 3, BufOcc: 7, Waiting: waiting, DeadLinks: 1})
	if len(ev) != 1 || ev[0].Healthy {
		t.Fatalf("expected deadlock event, got %v", ev)
	}
	d := verdict(t, m, DetectorDeadlock).Detail
	if !strings.Contains(d, "wedged VCs") || !strings.Contains(d, "t5:N.vc2") || !strings.Contains(d, "stuck") {
		t.Fatalf("wedged attribution missing: %q", d)
	}
	if !strings.Contains(d, "1 dead link") {
		t.Fatalf("dead-link context missing: %q", d)
	}
}

func TestDeadlockNamesOldestWaiterWithoutCycle(t *testing.T) {
	m := New(Config{DeadlockWindow: 10})
	// An acyclic chain: t3 waits on t7, t7 waits on a VC outside the set.
	waiting := []VCWait{
		{Tile: 3, Port: route.South, VC: 1, Age: 50, Routed: true, OutPort: route.North, OutVC: 0, DownTile: 7},
		{Tile: 7, Port: route.South, VC: 0, Age: 120, Routed: true, OutPort: route.North, OutVC: 3, DownTile: 11},
	}
	m.Observe(Sample{Cycle: 0, EjectedFlits: 0, BufOcc: 2})
	m.Observe(Sample{Cycle: 20, EjectedFlits: 0, BufOcc: 2, Waiting: waiting})
	ev := m.Observe(Sample{Cycle: 40, EjectedFlits: 0, BufOcc: 2, Waiting: waiting})
	if len(ev) != 1 {
		t.Fatalf("expected deadlock event, got %v", ev)
	}
	d := verdict(t, m, DetectorDeadlock).Detail
	if !strings.Contains(d, "oldest waiting VC t7:S.vc0") {
		t.Fatalf("oldest-waiter attribution missing: %q", d)
	}
}

func TestStarvationNamesRouterPortVC(t *testing.T) {
	m := New(Config{StarveAge: 200})
	m.Observe(Sample{Cycle: 0, EjectedFlits: 0})
	// Network progressing (ejections advance) but one VC is ancient.
	waiting := []VCWait{
		{Tile: 9, Port: route.West, VC: 3, Age: 350, Routed: true, OutPort: route.East, OutVC: 1, DownTile: 10},
		{Tile: 2, Port: route.North, VC: 1, Age: 150, Routed: true, OutPort: route.South, OutVC: 0, DownTile: 1},
	}
	ev := m.Observe(Sample{Cycle: 500, EjectedFlits: 100, BufOcc: 5, Waiting: waiting})
	if len(ev) != 1 || ev[0].Detector != DetectorStarvation || ev[0].Healthy {
		t.Fatalf("expected starvation event, got %v", ev)
	}
	d := verdict(t, m, DetectorStarvation).Detail
	if !strings.Contains(d, "t9:W.vc3") {
		t.Fatalf("starved VC not named: %q", d)
	}
	if strings.Contains(d, "t2:N.vc1") {
		t.Fatalf("below-watermark VC reported: %q", d)
	}
	// Recovery when the VC drains.
	ev = m.Observe(Sample{Cycle: 1000, EjectedFlits: 200, BufOcc: 1})
	if len(ev) != 1 || !ev[0].Healthy {
		t.Fatalf("expected starvation recovery, got %v", ev)
	}
}

func TestStarvationOrdersByAgeAndCaps(t *testing.T) {
	m := New(Config{StarveAge: 100})
	waiting := []VCWait{
		{Tile: 1, Port: route.North, VC: 0, Age: 150},
		{Tile: 2, Port: route.East, VC: 1, Age: 400},
		{Tile: 3, Port: route.South, VC: 2, Age: 250},
		{Tile: 4, Port: route.West, VC: 3, Age: 300},
		{Tile: 5, Port: route.North, VC: 0, Age: 200},
	}
	m.Observe(Sample{Cycle: 0})
	m.Observe(Sample{Cycle: 100, EjectedFlits: 10, Waiting: waiting})
	d := verdict(t, m, DetectorStarvation).Detail
	if !strings.Contains(d, "5 VC(s)") {
		t.Fatalf("starved count missing: %q", d)
	}
	// Oldest three named in age order, remainder summarized.
	i1 := strings.Index(d, "t2:E.vc1")
	i2 := strings.Index(d, "t4:W.vc3")
	i3 := strings.Index(d, "t3:S.vc2")
	if i1 < 0 || i2 < 0 || i3 < 0 || !(i1 < i2 && i2 < i3) {
		t.Fatalf("starved VCs not in age order: %q", d)
	}
	if strings.Contains(d, "t5:N.vc0") || !strings.Contains(d, "(+2 more)") {
		t.Fatalf("cap at three named VCs not applied: %q", d)
	}
}

func TestStarvationDefersToDeadlock(t *testing.T) {
	m := New(Config{StarveAge: 100, DeadlockWindow: 10_000})
	m.Observe(Sample{Cycle: 0, EjectedFlits: 7})
	waiting := []VCWait{{Tile: 1, Port: route.East, VC: 0, Age: 999, Routed: true, OutPort: route.West, OutVC: 0, DownTile: 0}}
	// Zero ejections with buffered flits is the deadlock detector's
	// domain; starvation must stay quiet.
	ev := m.Observe(Sample{Cycle: 500, EjectedFlits: 7, BufOcc: 3, Waiting: waiting})
	for _, e := range ev {
		if e.Detector == DetectorStarvation {
			t.Fatalf("starvation fired during total stall: %v", ev)
		}
	}
}

func TestCongestionCollapseFiresAndNamesHotLinks(t *testing.T) {
	m := New(Config{CollapseWindows: 2, CollapseTolerance: 0.1})
	hot := []LinkLoad{
		{Index: 4, From: 1, To: 2, Dir: "E", Flits: 900},
		{Index: 9, From: 2, To: 3, Dir: "E", Flits: 700},
	}
	m.Observe(Sample{Cycle: 0})
	// Window rates: offered 1.0 pkts/cycle, delivered 4.0 flits/cycle.
	m.Observe(Sample{Cycle: 100, GeneratedPackets: 100, EjectedFlits: 400})
	// Offered climbs to 1.1 while delivered falls to 3.0: fall #1.
	if ev := m.Observe(Sample{Cycle: 200, GeneratedPackets: 210, EjectedFlits: 700, HotLinks: hot}); len(ev) != 0 {
		t.Fatalf("collapse fired after one falling window: %v", ev)
	}
	// Offered 1.2, delivered 2.0: fall #2 completes the streak.
	ev := m.Observe(Sample{Cycle: 300, GeneratedPackets: 330, EjectedFlits: 900, HotLinks: hot})
	if len(ev) != 1 || ev[0].Detector != DetectorCongestion || ev[0].Healthy {
		t.Fatalf("expected congestion event, got %v", ev)
	}
	v := verdict(t, m, DetectorCongestion)
	if !strings.Contains(v.Detail, "hottest links") || !strings.Contains(v.Detail, "L4 1-E") {
		t.Fatalf("hot-link attribution missing: %q", v.Detail)
	}
	if v.Since != 200 {
		t.Fatalf("Since = %d, want 200 (first falling window)", v.Since)
	}
	// Delivered recovers, the streak resets, verdict flips healthy.
	ev = m.Observe(Sample{Cycle: 400, GeneratedPackets: 450, EjectedFlits: 1400})
	if len(ev) != 1 || !ev[0].Healthy {
		t.Fatalf("expected congestion recovery, got %v", ev)
	}
}

func TestCongestionStaysLatchedAtZeroDelivery(t *testing.T) {
	m := New(Config{CollapseWindows: 2, CollapseTolerance: 0.1})
	m.Observe(Sample{Cycle: 0})
	m.Observe(Sample{Cycle: 100, GeneratedPackets: 100, EjectedFlits: 400})
	m.Observe(Sample{Cycle: 200, GeneratedPackets: 200, EjectedFlits: 500}) // fall #1
	ev := m.Observe(Sample{Cycle: 300, GeneratedPackets: 300, EjectedFlits: 500})
	if len(ev) != 1 || ev[0].Healthy {
		t.Fatalf("expected collapse at zero delivery, got %v", ev)
	}
	// Delivery stays flat at zero while offered load keeps rising: the
	// collapse holds; it must NOT read as a recovery.
	ev = m.Observe(Sample{Cycle: 400, GeneratedPackets: 400, EjectedFlits: 500})
	if len(ev) != 0 || m.Healthy() {
		t.Fatalf("collapse unlatched while delivery was flat at zero: %v", ev)
	}
	// Delivery resuming clears it.
	ev = m.Observe(Sample{Cycle: 500, GeneratedPackets: 500, EjectedFlits: 900})
	if len(ev) != 1 || !ev[0].Healthy {
		t.Fatalf("expected recovery once delivery resumed, got %v", ev)
	}
}

func TestCongestionSilentWhenOfferedFallsToo(t *testing.T) {
	m := New(Config{CollapseWindows: 2})
	m.Observe(Sample{Cycle: 0})
	m.Observe(Sample{Cycle: 100, GeneratedPackets: 100, EjectedFlits: 400})
	// Both offered and delivered fall (sources backing off): not collapse.
	m.Observe(Sample{Cycle: 200, GeneratedPackets: 150, EjectedFlits: 600})
	ev := m.Observe(Sample{Cycle: 300, GeneratedPackets: 200, EjectedFlits: 800})
	if len(ev) != 0 || !m.Healthy() {
		t.Fatalf("congestion fired on cooperative slowdown: %v", ev)
	}
}

func TestWaitCycleFindsLongLoop(t *testing.T) {
	// A three-VC loop 0 -> 1 -> 2 -> 0 plus a dangling chain from tile 3
	// that joins the loop but is not part of it.
	ws := []VCWait{
		{Tile: 0, Port: route.West, VC: 0, Routed: true, OutPort: route.East, OutVC: 0, DownTile: 1},
		{Tile: 1, Port: route.West, VC: 0, Routed: true, OutPort: route.East, OutVC: 0, DownTile: 2},
		{Tile: 2, Port: route.West, VC: 0, Routed: true, OutPort: route.East, OutVC: 0, DownTile: 0},
		{Tile: 3, Port: route.North, VC: 1, Routed: true, OutPort: route.East, OutVC: 0, DownTile: 0},
	}
	cyc := waitCycle(ws)
	if len(cyc) != 3 {
		t.Fatalf("cycle length %d, want 3 (%v)", len(cyc), cyc)
	}
	tiles := map[int]bool{}
	for _, w := range cyc {
		tiles[w.Tile] = true
	}
	if !tiles[0] || !tiles[1] || !tiles[2] || tiles[3] {
		t.Fatalf("wrong cycle members: %v", cyc)
	}
}

func TestWaitCycleNoCycle(t *testing.T) {
	ws := []VCWait{
		{Tile: 0, Port: route.West, VC: 0, Routed: true, OutPort: route.East, OutVC: 0, DownTile: 1},
		{Tile: 1, Port: route.West, VC: 0, Routed: true, OutPort: route.East, OutVC: 0, DownTile: 2},
	}
	if cyc := waitCycle(ws); cyc != nil {
		t.Fatalf("found a cycle in an acyclic chain: %v", cyc)
	}
}

// TestMinWaitAge pins the waiting-set threshold: half the smaller of the
// starvation watermark and the deadlock window (defaults applied), unhalved
// once it is 4 cycles or less.
func TestMinWaitAge(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want int64
	}{
		{Config{}, DefaultStarveAge / 2},
		{Config{StarveAge: 200}, 100},
		{Config{DeadlockWindow: 64}, 32},
		{Config{StarveAge: 256, DeadlockWindow: 1 << 30}, 128},
		{Config{StarveAge: 3}, 3},
	} {
		if got := MinWaitAge(tc.cfg); got != tc.want {
			t.Errorf("MinWaitAge(%+v) = %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

// TestMonitorStateRoundTrip: a monitor restored from another's saved
// state, at any point of a run that trips congestion collapse and then a
// deadlock, reports the same events and verdicts from then on as the
// monitor it was saved from.
func TestMonitorStateRoundTrip(t *testing.T) {
	hot := []LinkLoad{{Index: 3, From: 1, To: 2, Dir: "E", Flits: 90}}
	wedged := []VCWait{{Tile: 5, Port: route.North, VC: 2, Age: 700, Stuck: true}}
	samples := []Sample{
		{Cycle: 0},
		{Cycle: 100, GeneratedPackets: 100, EjectedFlits: 400},
		{Cycle: 200, GeneratedPackets: 210, EjectedFlits: 700, HotLinks: hot},
		{Cycle: 300, GeneratedPackets: 330, EjectedFlits: 900, HotLinks: hot},
		{Cycle: 400, GeneratedPackets: 460, EjectedFlits: 900, BufOcc: 9, Waiting: wedged},
		{Cycle: 500, GeneratedPackets: 590, EjectedFlits: 900, BufOcc: 9, Waiting: wedged},
		{Cycle: 600, GeneratedPackets: 700, EjectedFlits: 1000, BufOcc: 2},
	}
	cfg := Config{DeadlockWindow: 100}
	tripped := map[string]bool{}
	for at := range samples {
		orig := New(cfg)
		for _, s := range samples[:at] {
			orig.Observe(s)
		}
		b := checkpoint.NewBuilder(0, 0)
		orig.SaveState(b.Section("m"))
		f, err := checkpoint.Parse(b.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		d, err := f.Section("m")
		if err != nil {
			t.Fatal(err)
		}
		restored := New(cfg)
		restored.RestoreState(d)
		if err := d.Close(); err != nil {
			t.Fatalf("restore at sample %d: %v", at, err)
		}
		for _, s := range samples[at:] {
			want, got := orig.Observe(s), restored.Observe(s)
			for _, ev := range want {
				tripped[ev.Detector] = tripped[ev.Detector] || !ev.Healthy
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(restored.Verdicts(), orig.Verdicts()) {
				t.Fatalf("restored at sample %d, cycle %d: events %+v verdicts %+v, want %+v and %+v",
					at, s.Cycle, got, restored.Verdicts(), want, orig.Verdicts())
			}
		}
	}
	if !tripped[DetectorCongestion] || !tripped[DetectorDeadlock] {
		t.Fatalf("detectors tripped: %v; want congestion and deadlock, or the check is vacuous", tripped)
	}
}
