package network

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/router"
	"repro/internal/topology"
)

// buildFaulty builds a 4x4 torus network with watchdogs armed and a
// fault injector attached for the given campaign spec.
func buildFaulty(t *testing.T, seed int64, watchdog int, spec string) (*Network, *fault.Injector) {
	t.Helper()
	rc := router.DefaultConfig(0)
	n, err := New(Config{Topo: torus4(t), Router: rc, Watchdog: watchdog, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	events, err := fault.ParseEvents(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(n, events, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach()
	return n, inj
}

// bernoulliClients attaches a deterministic uniform-random Bernoulli
// source to every tile (traffic.Generator lives above network, so the
// tests use inline clients) and returns a counter of delivered packets
// per destination.
func bernoulliClients(n *Network, rate float64, seed int64) *int64 {
	delivered := new(int64)
	tiles := n.Topology().NumTiles()
	for tile := 0; tile < tiles; tile++ {
		tile := tile
		rng := rand.New(rand.NewSource(seed + int64(tile)))
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			*delivered += int64(len(p.Deliveries()))
			if rng.Float64() < rate {
				dst := rng.Intn(tiles - 1)
				if dst >= tile {
					dst++
				}
				// Ignore unroutable errors: a cut network refuses sends.
				_, _ = p.Send(dst, []byte{byte(now)}, flit.VCMask(0xFF), 0)
			}
		}))
	}
	return delivered
}

func TestWatchdogDetectsKilledLink(t *testing.T) {
	const killAt = 200
	n, _ := buildFaulty(t, 3, 64, "kill,link=0,at=200")
	bernoulliClients(n, 0.10, 11)
	n.Run(2000)

	det := n.FaultMap().Detections()
	if len(det) != 1 {
		t.Fatalf("detections = %v, want exactly the killed link", det)
	}
	from, dir, _ := n.LinkEndpoints(0)
	if det[0].From != from || det[0].Dir != dir {
		t.Fatalf("detected (%d,%v), killed (%d,%v)", det[0].From, det[0].Dir, from, dir)
	}
	latency := det[0].DetectedAt - killAt
	if latency < 64 {
		t.Fatalf("detection latency %d below the watchdog threshold 64", latency)
	}
	if latency > 1000 {
		t.Fatalf("detection latency %d implausibly high at 10%% load", latency)
	}
	if n.ReroutedCount() == 0 {
		t.Fatal("no traffic was rerouted after detection")
	}
}

// TestWatchdogNoFalsePositives is the heavy-but-healthy satellite test:
// sustained load near the torus saturation point must never trip a
// watchdog, because credits keep circulating on every loaded link.
func TestWatchdogNoFalsePositives(t *testing.T) {
	n, _ := buildFaulty(t, 5, 64, "")
	delivered := bernoulliClients(n, 0.35, 13)
	n.Run(6000)
	if !n.FaultMap().Empty() {
		t.Fatalf("healthy network declared faults: %v", n.FaultMap().Detections())
	}
	if *delivered == 0 {
		t.Fatal("no traffic delivered; load generator broken")
	}
	if n.ReroutedCount() != 0 {
		t.Fatalf("rerouted %d packets with an empty fault map", n.ReroutedCount())
	}
}

// TestRerouteZeroLossAfterEngage kills every one of the 64 torus links in
// turn and checks the acceptance criterion: packets injected after
// detection + reroute engage are all delivered — no permanent loss — for
// any single-link fault (no single link cuts a 4x4 torus).
func TestRerouteZeroLossAfterEngage(t *testing.T) {
	topo := torus4(t)
	numLinks := len(topology.Links(topo))
	if numLinks != 64 {
		t.Fatalf("4x4 torus has %d links, want 64", numLinks)
	}
	for link := 0; link < numLinks; link++ {
		n, _ := buildFaulty(t, 9, 64, fault.FormatEvents([]fault.Event{
			{Kind: fault.LinkKill, At: 100, Link: link, From: -1, Tile: -1, VC: -1},
		}))
		// Background load so the watchdog sees demand on the dead link.
		bernoulliClients(n, 0.08, 17)
		n.Run(1500)
		det := n.FaultMap().Detections()
		if len(det) != 1 {
			t.Fatalf("link %d: detections = %v", link, det)
		}
		engaged := det[0].DetectedAt

		// Probe: after engagement, every pair must still deliver.
		type probe struct {
			id  uint64
			dst int
		}
		var sent []probe
		got := map[uint64]bool{}
		for tile := 0; tile < topo.NumTiles(); tile++ {
			tile := tile
			n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
				for _, d := range p.Deliveries() {
					got[d.PacketID] = true
				}
			}))
		}
		if engaged >= n.Kernel().Now() {
			t.Fatalf("link %d: engaged at %d, now %d", link, engaged, n.Kernel().Now())
		}
		for src := 0; src < topo.NumTiles(); src++ {
			for dst := 0; dst < topo.NumTiles(); dst++ {
				if src == dst {
					continue
				}
				id, err := n.Port(src).Send(dst, []byte{1, 2, 3}, flit.VCMask(0xFF), 0)
				if err != nil {
					t.Fatalf("link %d: %d->%d unroutable after single fault: %v", link, src, dst, err)
				}
				sent = append(sent, probe{id, dst})
			}
		}
		if !n.Drain(20000) {
			t.Fatalf("link %d: network failed to drain after reroute", link)
		}
		lost := 0
		for _, pr := range sent {
			if !got[pr.id] {
				lost++
			}
		}
		if lost != 0 {
			t.Fatalf("link %d: %d of %d post-engage packets permanently lost", link, lost, len(sent))
		}
	}
}

// TestCampaignDeterminism runs the same seeded campaign twice and demands
// bit-identical outcomes.
func TestCampaignDeterminism(t *testing.T) {
	run := func() (int64, int64, int64, int64, []fault.Detection) {
		n, _ := buildFaulty(t, 7, 64, "kill,link=9,at=300;stall,tile=6,port=W,at=1200,until=1500")
		delivered := bernoulliClients(n, 0.12, 23)
		n.Run(4000)
		tot := n.FaultTotals()
		return *delivered, tot.Rerouted, tot.DroppedFlits, tot.LostFlits, tot.Detections
	}
	d1, r1, df1, lf1, det1 := run()
	d2, r2, df2, lf2, det2 := run()
	if d1 != d2 || r1 != r2 || df1 != df2 || lf1 != lf2 {
		t.Fatalf("campaign not deterministic: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			d1, r1, df1, lf1, d2, r2, df2, lf2)
	}
	if len(det1) != len(det2) {
		t.Fatalf("detections differ: %v vs %v", det1, det2)
	}
	for i := range det1 {
		if det1[i] != det2[i] {
			t.Fatalf("detection %d differs: %v vs %v", i, det1[i], det2[i])
		}
	}
}

// TestPortStallDetection stalls an input controller and checks the
// watchdog fires on the link feeding it; after the stall is revoked the
// (fail-stop) dead link stays routed-around and traffic still flows.
func TestPortStallDetection(t *testing.T) {
	n, inj := buildFaulty(t, 21, 64, "stall,tile=5,port=W,at=500,until=5000")
	delivered := bernoulliClients(n, 0.10, 29)
	n.Run(3000)
	det := n.FaultMap().Detections()
	if len(det) != 1 {
		t.Fatalf("detections = %v, want 1", det)
	}
	if len(inj.Log) == 0 {
		t.Fatal("injector applied nothing")
	}
	want := inj.Log[0].Watched
	if det[0].From != want.From || det[0].Dir != want.Dir {
		t.Fatalf("detected (%d,%v), watched (%d,%v)", det[0].From, det[0].Dir, want.From, want.Dir)
	}
	before := *delivered
	n.Run(3000)
	if *delivered <= before {
		t.Fatal("no deliveries after stall; network wedged")
	}
}

func TestWatchdogConfigValidation(t *testing.T) {
	rc := router.DefaultConfig(0)
	if _, err := New(Config{Topo: torus4(t), Router: rc, Watchdog: -1}); err == nil {
		t.Fatal("negative watchdog accepted")
	}
	for _, mode := range []router.Mode{router.ModeDrop, router.ModeDeflect} {
		rc.Mode = mode
		if _, err := New(Config{Topo: torus4(t), Router: rc, Watchdog: 8}); err == nil {
			t.Fatalf("watchdog with router mode %d accepted", mode)
		}
	}
}
