package traffic

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestPatternsStayInRange(t *testing.T) {
	rng := sim.NewStream(1, 0)
	patterns := []Pattern{
		Uniform{Tiles: 16},
		Transpose{K: 4},
		BitComplement{Tiles: 16},
		Shuffle{Tiles: 16},
		Tornado{K: 4},
		Neighbor{K: 4},
		Hotspot{Hot: 5, Frac: 0.3, Base: Uniform{Tiles: 16}},
	}
	for _, p := range patterns {
		for src := 0; src < 16; src++ {
			for trial := 0; trial < 50; trial++ {
				d := p.Pick(src, rng)
				if d < 0 || d >= 16 {
					t.Fatalf("%s: src %d -> %d out of range", p.Name(), src, d)
				}
			}
		}
	}
}

func TestUniformNeverSelf(t *testing.T) {
	rng := sim.NewStream(2, 0)
	u := Uniform{Tiles: 16}
	for src := 0; src < 16; src++ {
		for trial := 0; trial < 200; trial++ {
			if u.Pick(src, rng) == src {
				t.Fatalf("uniform picked self for %d", src)
			}
		}
	}
}

// Property: uniform destinations are roughly uniform over the other tiles.
func TestUniformDistributionProperty(t *testing.T) {
	rng := sim.NewStream(3, 0)
	u := Uniform{Tiles: 8}
	counts := make([]int, 8)
	const n = 70000
	for i := 0; i < n; i++ {
		counts[u.Pick(3, rng)]++
	}
	if counts[3] != 0 {
		t.Fatal("self-traffic generated")
	}
	want := n / 7
	for d, c := range counts {
		if d == 3 {
			continue
		}
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("destination %d count %d far from %d", d, c, want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	p := Transpose{K: 4}
	for src := 0; src < 16; src++ {
		if p.Pick(p.Pick(src, nil), nil) != src {
			t.Fatalf("transpose not an involution at %d", src)
		}
	}
}

func TestBitComplementInvolution(t *testing.T) {
	f := func(raw uint8) bool {
		p := BitComplement{Tiles: 64}
		src := int(raw) % 64
		return p.Pick(p.Pick(src, nil), nil) == src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePermutation(t *testing.T) {
	p := Shuffle{Tiles: 16}
	seen := map[int]bool{}
	for src := 0; src < 16; src++ {
		d := p.Pick(src, nil)
		if seen[d] {
			t.Fatalf("shuffle not a permutation: %d hit twice", d)
		}
		seen[d] = true
	}
}

func TestTornadoDistance(t *testing.T) {
	p := Tornado{K: 4}
	// Tornado on k=4 sends x -> x+1 mod 4 within the row (ceil(k/2)-1=1).
	if got := p.Pick(0, nil); got != 1 {
		t.Fatalf("tornado(0) = %d", got)
	}
	if got := p.Pick(3, nil); got != 0 {
		t.Fatalf("tornado(3) = %d", got)
	}
	// Row preserved.
	if got := p.Pick(7, nil); got/4 != 1 {
		t.Fatalf("tornado left the row: %d", got)
	}
}

func TestHotspotFraction(t *testing.T) {
	rng := sim.NewStream(4, 0)
	p := Hotspot{Hot: 2, Frac: 0.5, Base: Uniform{Tiles: 16}}
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if p.Pick(9, rng) == 2 {
			hot++
		}
	}
	frac := float64(hot) / n
	// 0.5 direct plus 1/15 of the uniform remainder.
	want := 0.5 + 0.5/15.0
	if frac < want-0.03 || frac > want+0.03 {
		t.Fatalf("hotspot fraction = %v, want ≈%v", frac, want)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"uniform", "transpose", "bitcomp", "shuffle", "tornado", "neighbor"} {
		if _, err := ByName(name, 4, 4); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ByName("nope", 4, 4); err == nil {
		t.Error("unknown pattern accepted")
	}
	if _, err := ByName("transpose", 4, 2); err == nil {
		t.Error("non-square transpose accepted")
	}
	if _, err := ByName("shuffle", 3, 3); err == nil {
		t.Error("non-power-of-two shuffle accepted")
	}
}

func buildNet(t *testing.T, seed int64) *network.Network {
	t.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: seed, Warmup: 200})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGeneratorOfferedRate(t *testing.T) {
	n := buildNet(t, 5)
	const rate = 0.2
	gens := make([]*Generator, 16)
	for tile := 0; tile < 16; tile++ {
		g := NewGenerator(tile, Uniform{Tiles: 16}, rate, 2, flit.VCMask(0xFF), 5)
		g.StopAt = 2000
		gens[tile] = g
		n.AttachClient(tile, g)
	}
	n.Run(2000)
	var packets int64
	for _, g := range gens {
		packets += g.GeneratedPackets
	}
	// Offered flits/cycle/node = packets * 2 flits / (2000 cycles * 16).
	offered := float64(packets*2) / (2000 * 16)
	if offered < rate*0.9 || offered > rate*1.1 {
		t.Fatalf("offered = %v, want ≈%v", offered, rate)
	}
	if !n.Drain(50000) {
		t.Fatal("did not drain")
	}
	rec := n.Recorder()
	if rec.DeliveredPackets != packets {
		t.Fatalf("delivered %d of %d", rec.DeliveredPackets, packets)
	}
}

func TestStreamSourcePeriodicity(t *testing.T) {
	n := buildNet(t, 6)
	src := &StreamSource{Tile: 0, Dst: 5, Period: 10, Phase: 3, Mask: flit.MaskFor(0), Class: 1, StopAt: 503}
	n.AttachClient(0, src)
	arrivals := []int64{}
	n.AttachClient(5, network.ClientFunc(func(now int64, p *network.Port) {
		for range p.Deliveries() {
			arrivals = append(arrivals, now)
		}
	}))
	n.Run(600)
	if src.Sent != 50 {
		t.Fatalf("sent %d, want 50", src.Sent)
	}
	if int64(len(arrivals)) != src.Sent {
		t.Fatalf("arrived %d of %d", len(arrivals), src.Sent)
	}
	// Unloaded network: arrivals exactly periodic.
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i]-arrivals[i-1] != 10 {
			t.Fatalf("inter-arrival %d at %d", arrivals[i]-arrivals[i-1], i)
		}
	}
}

func TestTraceSourceReplays(t *testing.T) {
	n := buildNet(t, 7)
	tr := &TraceSource{
		Tile: 2,
		Mask: flit.MaskFor(0),
		Events: []Event{
			{Cycle: 5, Src: 2, Dst: 7, Bytes: 16},
			{Cycle: 5, Src: 1, Dst: 7, Bytes: 16}, // other tile: skipped
			{Cycle: 9, Src: 2, Dst: 2, Bytes: 16}, // self: skipped
			{Cycle: 12, Src: 2, Dst: 8, Bytes: 40},
		},
	}
	n.AttachClient(2, tr)
	got := 0
	for _, dst := range []int{7, 8} {
		n.AttachClient(dst, network.ClientFunc(func(now int64, p *network.Port) {
			got += len(p.Deliveries())
		}))
	}
	n.Run(100)
	if tr.Sent != 2 || got != 2 {
		t.Fatalf("sent %d delivered %d, want 2/2", tr.Sent, got)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	events := []Event{
		{Cycle: 5, Src: 2, Dst: 7, Bytes: 16, Class: 1},
		{Cycle: 0, Src: 0, Dst: 5, Bytes: 64},
		{Cycle: 10, Src: 15, Dst: 0, Bytes: 128, Class: 3},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("events = %d", len(got))
	}
	// Parsed traces come back sorted by cycle.
	if got[0].Cycle != 0 || got[1].Cycle != 5 || got[2].Cycle != 10 {
		t.Fatalf("not sorted: %+v", got)
	}
	if got[1] != events[0] {
		t.Fatalf("event mangled: %+v vs %+v", got[1], events[0])
	}
}

func TestParseTraceCommentsAndErrors(t *testing.T) {
	good := "# header\n\n3 1 2 64\n"
	events, err := ParseTrace(strings.NewReader(good))
	if err != nil || len(events) != 1 {
		t.Fatalf("comment parse: %v %v", events, err)
	}
	for _, bad := range []string{
		"x 1 2 64\n",
		"3 1 2\n",
		"3 1 2 64 0 9\n",
		"-1 1 2 64\n",
		"3 1 2 sixty\n",
		"0 0 1 1099511627776\n",        // a 1 TiB payload would be allocated whole
		"9223372036854775807 0 1 32\n", // horizon = cycle+1 would wrap
	} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("bad trace %q accepted", bad)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("bad trace %q: error %q does not name the line", bad, err)
		}
	}
}

func TestSplitByTile(t *testing.T) {
	events := []Event{
		{Cycle: 1, Src: 0, Dst: 1, Bytes: 8},
		{Cycle: 2, Src: 0, Dst: 2, Bytes: 8},
		{Cycle: 3, Src: 5, Dst: 0, Bytes: 8},
	}
	srcs, err := SplitByTile(events, 16, flit.MaskFor(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs[0].Events) != 2 || len(srcs[5].Events) != 1 || len(srcs[3].Events) != 0 {
		t.Fatal("events misassigned")
	}
	if _, err := SplitByTile([]Event{{Src: 99, Dst: 0}}, 16, flit.MaskFor(0)); err == nil {
		t.Fatal("out-of-range trace accepted")
	}
}
