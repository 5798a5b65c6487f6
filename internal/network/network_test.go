package network

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/flit"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/topology"
)

func torus4(t *testing.T) topology.Topology {
	t.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func mesh4(t *testing.T) topology.Topology {
	t.Helper()
	topo, err := topology.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func build(t *testing.T, cfg Config) *Network {
	t.Helper()
	if cfg.Router.NumVCs == 0 {
		cfg.Router = router.DefaultConfig(0)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSinglePacketLatency(t *testing.T) {
	// Zero-load latency of the 2-cycle/hop pipeline: inject at t0, head
	// reaches the client at t0 + 2H + 2.
	n := build(t, Config{Topo: torus4(t), Seed: 1})
	payload := []byte("route packets, not wires")
	var got *Delivery
	n.AttachClient(5, ClientFunc(func(now int64, p *Port) {
		for _, d := range p.Deliveries() {
			cp := *d
			cp.Payload = append([]byte(nil), d.Payload...)
			got = &cp
		}
	}))
	if _, err := n.Port(0).Send(5, payload, flit.MaskFor(0), 0); err != nil {
		t.Fatal(err)
	}
	n.Run(40)
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatalf("payload corrupted: %q", got.Payload)
	}
	// 0 -> 5 on the 4x4 torus is 2 hops (E then N).
	hops, _ := topology.PathMetrics(n.Topology(), 0, 5)
	want := int64(2*hops + 2)
	if lat := got.Arrived - got.Birth; lat != want {
		t.Fatalf("latency = %d, want %d (H=%d)", lat, want, hops)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	for _, topo := range []topology.Topology{torus4(t), mesh4(t)} {
		n := build(t, Config{Topo: topo, Seed: 2})
		type key struct{ src, dst int }
		want := make(map[key][]byte)
		received := make(map[key][]byte)
		for tile := 0; tile < topo.NumTiles(); tile++ {
			tile := tile
			n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
				for _, d := range p.Deliveries() {
					received[key{d.Src, tile}] = append([]byte(nil), d.Payload...)
				}
			}))
		}
		for src := 0; src < topo.NumTiles(); src++ {
			for dst := 0; dst < topo.NumTiles(); dst++ {
				payload := []byte(fmt.Sprintf("%s:%d->%d payload", topo.Name(), src, dst))
				want[key{src, dst}] = payload
				if _, err := n.Port(src).Send(dst, payload, flit.VCMask(0xFF), 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !n.Drain(20000) {
			t.Fatalf("%s: network did not drain (occupancy %d)", topo.Name(), n.Occupancy())
		}
		for k, w := range want {
			got, ok := received[k]
			if !ok {
				t.Fatalf("%s: %d->%d never delivered", topo.Name(), k.src, k.dst)
			}
			if !bytes.Equal(got, w) {
				t.Fatalf("%s: %d->%d corrupted", topo.Name(), k.src, k.dst)
			}
		}
		rec := n.Recorder()
		if rec.DeliveredPackets != int64(len(want)) {
			t.Fatalf("%s: delivered %d, want %d", topo.Name(), rec.DeliveredPackets, len(want))
		}
	}
}

func TestMultiFlitPacketsUnderLoad(t *testing.T) {
	n := build(t, Config{Topo: torus4(t), Seed: 3})
	topo := n.Topology()
	delivered := 0
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			for _, d := range p.Deliveries() {
				if len(d.Payload) != 200 {
					t.Errorf("payload len %d", len(d.Payload))
				}
				delivered++
			}
		}))
	}
	// Everyone sends 7-flit packets to a rotating destination.
	sent := 0
	for round := 0; round < 5; round++ {
		for src := 0; src < topo.NumTiles(); src++ {
			dst := (src + round + 1) % topo.NumTiles()
			if dst == src {
				continue
			}
			payload := make([]byte, 200)
			for i := range payload {
				payload[i] = byte(src ^ i)
			}
			if _, err := n.Port(src).Send(dst, payload, flit.VCMask(0x0F), 0); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	if !n.Drain(50000) {
		t.Fatalf("did not drain: occupancy %d", n.Occupancy())
	}
	if delivered != sent {
		t.Fatalf("delivered %d of %d", delivered, sent)
	}
}

func TestCreditsRestoredAfterDrain(t *testing.T) {
	n := build(t, Config{Topo: torus4(t), Seed: 4})
	for src := 0; src < 16; src++ {
		dst := (src + 7) % 16
		if dst == src {
			continue
		}
		if _, err := n.Port(src).Send(dst, make([]byte, 128), flit.VCMask(0xFF), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Drain(20000) {
		t.Fatal("did not drain")
	}
	// Credit conservation: with the network empty, every output controller
	// must hold exactly BufFlits credits per VC again.
	buf := n.routers[0].Config().BufFlits
	// Let in-flight credits on reverse channels land.
	n.Run(5)
	for tile := 0; tile < 16; tile++ {
		r := n.Router(tile)
		for _, d := range dirsOf() {
			if _, ok := n.Topology().Neighbor(tile, d); !ok {
				continue
			}
			for vc := 0; vc < r.Config().NumVCs; vc++ {
				if got := r.CreditCount(d, vc); got != buf {
					t.Fatalf("tile %d dir %v vc %d: credits %d, want %d", tile, d, vc, got, buf)
				}
			}
		}
	}
}

func TestLoopback(t *testing.T) {
	n := build(t, Config{Topo: torus4(t), Seed: 5})
	var got *Delivery
	n.AttachClient(3, ClientFunc(func(now int64, p *Port) {
		for _, d := range p.Deliveries() {
			cp := *d
			cp.Payload = append([]byte(nil), d.Payload...)
			got = &cp
		}
	}))
	if _, err := n.Port(3).Send(3, []byte("self"), flit.MaskFor(0), 0); err != nil {
		t.Fatal(err)
	}
	n.Run(5)
	if got == nil || string(got.Payload) != "self" {
		t.Fatalf("loopback failed: %+v", got)
	}
	if got.Arrived-got.Birth != 1 {
		t.Fatalf("loopback latency = %d, want 1", got.Arrived-got.Birth)
	}
}

func TestSendValidation(t *testing.T) {
	n := build(t, Config{Topo: torus4(t), Seed: 6})
	if _, err := n.Port(0).Send(99, nil, flit.MaskFor(0), 0); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := n.Port(0).Send(1, nil, 0, 0); err == nil {
		t.Error("empty VC mask accepted")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (int64, int64) {
		n := build(t, Config{Topo: torus4(t), Seed: 42})
		topo := n.Topology()
		for tile := 0; tile < topo.NumTiles(); tile++ {
			tile := tile
			n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
				p.Deliveries()
				if now < 500 && now%3 == int64(tile%3) {
					dst := int(now+int64(tile)*7) % topo.NumTiles()
					if dst != tile {
						_, _ = p.Send(dst, make([]byte, 64), flit.VCMask(0xFF), 0)
					}
				}
			}))
		}
		n.Run(800)
		rec := n.Recorder()
		return rec.DeliveredPackets, rec.PacketLatency.Count()
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", d1, l1, d2, l2)
	}
	if d1 == 0 {
		t.Fatal("no packets delivered in determinism check")
	}
}

func TestPriorityInterruptsLongPacket(t *testing.T) {
	// §2.1: "the injection of a long, low priority packet may be
	// interrupted to inject a short, high-priority packet and then
	// resumed." With per-cycle injection arbitration, a high-class
	// single-flit packet queued mid-injection must be delivered before the
	// long packet finishes.
	n := build(t, Config{Topo: torus4(t), Seed: 7})
	var longDone, shortDone int64
	n.AttachClient(2, ClientFunc(func(now int64, p *Port) {
		for _, d := range p.Deliveries() {
			if d.Class == 0 {
				longDone = now
			} else {
				shortDone = now
			}
		}
	}))
	long := make([]byte, 10*flit.DataBytes) // 10 flits
	if _, err := n.Port(0).Send(2, long, flit.MaskFor(0), 0); err != nil {
		t.Fatal(err)
	}
	n.Run(3) // let the long packet start injecting
	if _, err := n.Port(0).Send(2, []byte("urgent"), flit.MaskFor(1), 9); err != nil {
		t.Fatal(err)
	}
	n.Run(200)
	if longDone == 0 || shortDone == 0 {
		t.Fatalf("deliveries missing: long=%d short=%d", longDone, shortDone)
	}
	if shortDone >= longDone {
		t.Fatalf("high-priority packet (t=%d) did not overtake long packet (t=%d)", shortDone, longDone)
	}
}

// TestPumpStartsYoungerPastBlockedOldest: when the oldest pending packet
// finds no free VC in its mask, a younger packet whose mask has one still
// starts. A long VC0-only packet holds VC0, a second VC0-only packet
// queues behind it, and a younger, higher-class VC1-only packet must start
// on VC1 at the next pump while the blocked one stays queued.
func TestPumpStartsYoungerPastBlockedOldest(t *testing.T) {
	n := build(t, Config{Topo: mesh4(t), Seed: 7})
	p := n.Port(0)
	if _, err := p.Send(5, make([]byte, 10*flit.DataBytes), flit.MaskFor(0), 0); err != nil {
		t.Fatal(err)
	}
	n.Run(2)
	if p.active[0] == nil {
		t.Fatal("the long packet did not start on VC0")
	}
	blocked, err := p.Send(5, []byte("blocked"), flit.MaskFor(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	younger, err := p.Send(5, make([]byte, 2*flit.DataBytes), flit.MaskFor(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(1)
	if in := p.active[1]; in == nil || in.seq != younger {
		t.Fatalf("VC1 carries %+v, want the younger packet %d", in, younger)
	}
	if len(p.pending) != 1 || p.pending[0].seq != blocked {
		t.Fatalf("pending = %d packets, want only the blocked packet %d", len(p.pending), blocked)
	}
}

func TestDropModeDropsUnderOverload(t *testing.T) {
	rc := router.DefaultConfig(0)
	rc.Mode = router.ModeDrop
	rc.BufFlits = 1
	rc.NumVCs = 1
	n := build(t, Config{Topo: torus4(t), Router: rc, Seed: 8})
	topo := n.Topology()
	// Hammer a single hotspot from every tile.
	for tile := 0; tile < topo.NumTiles(); tile++ {
		tile := tile
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			p.Deliveries()
			if tile != 0 && now < 400 {
				_, _ = p.Send(0, []byte{byte(tile)}, flit.MaskFor(0), 0)
			}
		}))
	}
	n.Run(600)
	if !n.Drain(50000) {
		t.Fatalf("drop-mode network did not drain (occupancy %d)", n.Occupancy())
	}
	var drops int64
	for tile := 0; tile < topo.NumTiles(); tile++ {
		drops += n.Router(tile).Stats.DroppedPackets
	}
	rec := n.Recorder()
	if drops == 0 {
		t.Fatal("hotspot overload produced no drops in drop mode")
	}
	if rec.DeliveredPackets == 0 {
		t.Fatal("drop mode delivered nothing")
	}
	// Every injected packet was either delivered or dropped.
	if rec.DeliveredPackets+drops != rec.InjectedPackets {
		t.Fatalf("conservation violated: delivered %d + dropped %d != injected %d",
			rec.DeliveredPackets, drops, rec.InjectedPackets)
	}
}

// deflectRouter is the default router template in deflection mode.
func deflectRouter() router.Config {
	rc := router.DefaultConfig(0)
	rc.Mode = router.ModeDeflect
	return rc
}

func TestDeflectModeDeliversEverything(t *testing.T) {
	n := build(t, Config{Topo: mesh4(t), Router: deflectRouter(), Seed: 9})
	topo := n.Topology()
	delivered := 0
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			delivered += len(p.Deliveries())
		}))
	}
	sent := 0
	for round := 0; round < 20; round++ {
		for src := 0; src < topo.NumTiles(); src++ {
			dst := (src*7 + round) % topo.NumTiles()
			if dst == src {
				continue
			}
			if _, err := n.Port(src).Send(dst, []byte{1, 2, 3}, flit.MaskFor(0), 0); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	if !n.Drain(30000) {
		t.Fatalf("deflection network did not drain (occupancy %d)", n.Occupancy())
	}
	if delivered != sent {
		t.Fatalf("delivered %d of %d", delivered, sent)
	}
}

func TestDeflectRejectsMultiFlit(t *testing.T) {
	n := build(t, Config{Topo: mesh4(t), Router: deflectRouter(), Seed: 10})
	if _, err := n.Port(0).Send(1, make([]byte, 100), flit.MaskFor(0), 0); err == nil {
		t.Fatal("multi-flit packet accepted in deflection mode")
	}
}

// TestRefusedPacketsNotGenerated: a packet the flow control cannot carry
// (multi-flit under drop or deflection, or larger than the buffers under
// cut-through) is refused without taking an id or counting as generated,
// so the next packet sent gets the id a fresh network would give it.
func TestRefusedPacketsNotGenerated(t *testing.T) {
	drop := router.DefaultConfig(0)
	drop.Mode = router.ModeDrop
	vct := router.DefaultConfig(0)
	vct.CutThrough = true
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"drop", Config{Topo: mesh4(t), Router: drop}},
		{"deflect", Config{Topo: mesh4(t), Router: deflectRouter()}},
		{"vct", Config{Topo: mesh4(t), Router: vct}},
	} {
		fresh, err := build(t, c.cfg).Port(0).Send(1, []byte{1}, flit.MaskFor(0), 0)
		if err != nil {
			t.Fatal(err)
		}
		n := build(t, c.cfg)
		if _, err := n.Port(0).Send(1, make([]byte, 5*flit.DataBytes), flit.MaskFor(0), 0); err == nil {
			t.Fatalf("%s: 5-flit packet accepted", c.name)
		}
		if g := n.Recorder().Generated; g != 0 {
			t.Fatalf("%s: refused packet counted as generated (%d)", c.name, g)
		}
		id, err := n.Port(0).Send(1, []byte{1}, flit.MaskFor(0), 0)
		if err != nil {
			t.Fatal(err)
		}
		if id != fresh || n.Recorder().Generated != 1 {
			t.Fatalf("%s: next packet got id %d (fresh network: %d), generated %d", c.name, id, fresh, n.Recorder().Generated)
		}
	}
}

func TestReservedFlowZeroJitter(t *testing.T) {
	// §2.6: a pre-scheduled flow crosses the network "without arbitration
	// or delay" even under heavy dynamic background traffic.
	rc := router.DefaultConfig(0)
	rc.ReservedVC = 7
	rc.ResPeriod = 8
	n := build(t, Config{Topo: torus4(t), Router: rc, Seed: 11, Warmup: 0})
	topo := n.Topology()
	const flow, src, dst, period = 1, 0, 10, 8
	if _, err := n.ReserveFlow(src, dst, flow, 0); err != nil {
		t.Fatal(err)
	}
	// Background: every other tile floods random traffic.
	for tile := 0; tile < topo.NumTiles(); tile++ {
		tile := tile
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			p.Deliveries()
			if tile == src {
				if now%period == 0 && now < 800 {
					if _, err := p.SendReserved(dst, []byte{byte(now)}, flow); err != nil {
						t.Errorf("reserved send: %v", err)
					}
				}
				return
			}
			if now < 800 {
				d := int(now*31+int64(tile)*17) % topo.NumTiles()
				if d != tile {
					_, _ = p.Send(d, make([]byte, 96), flit.VCMask(0x7F), 0)
				}
			}
		}))
	}
	n.Run(1200)
	rec := n.Recorder()
	lat := rec.FlowLatency(flow)
	if lat == nil || lat.Count() < 50 {
		t.Fatalf("reserved flow delivered too little: %v", lat)
	}
	if j := rec.FlowJitter(flow); j != 0 {
		t.Fatalf("reserved flow jitter = %d cycles, want 0 (latency %v)", j, lat)
	}
	for _, p := range n.ports {
		if p.BlockedReserved != 0 {
			t.Fatalf("reserved injection blocked %d times", p.BlockedReserved)
		}
	}
	// The reserved latency equals the pipeline bound 2H+2.
	hops, _ := topology.PathMetrics(topo, src, dst)
	if got := lat.Max(); got != int64(2*hops+2) {
		t.Fatalf("reserved latency = %d, want %d", got, 2*hops+2)
	}
}

func TestUnreservedStreamHasJitterUnderLoad(t *testing.T) {
	// The §2.6 contrast: the same periodic stream without reservations
	// sees variable latency once dynamic traffic loads the network.
	rc := router.DefaultConfig(0)
	n := build(t, Config{Topo: torus4(t), Router: rc, Seed: 12})
	topo := n.Topology()
	const src, dst, period = 0, 10, 4
	arrivals := map[uint64]int64{}
	births := map[uint64]int64{}
	n.AttachClient(dst, ClientFunc(func(now int64, p *Port) {
		for _, d := range p.Deliveries() {
			if d.Src == src && d.Class == 1 {
				arrivals[d.PacketID] = now
				births[d.PacketID] = d.Birth
			}
		}
	}))
	for tile := 0; tile < topo.NumTiles(); tile++ {
		if tile == dst {
			continue
		}
		tile := tile
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			p.Deliveries()
			if now >= 3000 {
				return
			}
			if tile == src && now%period == 0 {
				_, _ = p.Send(dst, []byte{byte(now)}, flit.MaskFor(0), 1)
			}
			// Heavy background from everyone (multi-flit).
			if now%3 == int64(tile)%3 {
				d := int(now*13+int64(tile)*29) % topo.NumTiles()
				if d != tile {
					_, _ = p.Send(d, make([]byte, 64), flit.VCMask(0xFE), 0)
				}
			}
		}))
	}
	n.Run(4000)
	if len(arrivals) < 50 {
		t.Fatalf("stream delivered %d packets", len(arrivals))
	}
	var minLat, maxLat int64 = 1 << 60, 0
	for id, at := range arrivals {
		lat := at - births[id]
		if lat < minLat {
			minLat = lat
		}
		if lat > maxLat {
			maxLat = lat
		}
	}
	if maxLat == minLat {
		t.Fatalf("unreserved stream under load shows zero jitter (lat=%d); contrast experiment is broken", minLat)
	}
}

func dirsOf() []route.Dir {
	return []route.Dir{route.North, route.East, route.South, route.West}
}

func TestElasticLinksDeliverEverything(t *testing.T) {
	rc := router.DefaultConfig(0)
	rc.BufFlits = 1 // elastic channels make single-flit buffers workable
	n := build(t, Config{Topo: mesh4(t), Router: rc, ElasticLinks: true, Seed: 21})
	topo := n.Topology()
	delivered := 0
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			delivered += len(p.Deliveries())
		}))
	}
	sent := 0
	for round := 0; round < 10; round++ {
		for src := 0; src < topo.NumTiles(); src++ {
			dst := (src*3 + round + 1) % topo.NumTiles()
			if dst == src {
				continue
			}
			if _, err := n.Port(src).Send(dst, make([]byte, 96), flit.VCMask(0xFF), 0); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	if !n.Drain(60000) {
		t.Fatalf("elastic network did not drain (occupancy %d)", n.Occupancy())
	}
	if delivered != sent {
		t.Fatalf("delivered %d of %d", delivered, sent)
	}
}

func TestElasticRejectedOnTorus(t *testing.T) {
	if _, err := New(Config{Topo: torus4(t), Router: router.DefaultConfig(0), ElasticLinks: true}); err == nil {
		t.Fatal("elastic links on a torus accepted (would deadlock)")
	}
}

func TestElasticRecyclesCreditsLocally(t *testing.T) {
	// The ref-[4] claim behind §3.3: with single-flit input buffers, a
	// single-VC stream is throttled by the credit round trip under credit
	// flow control, but runs at full rate over elastic channels because
	// the flow-control loop closes at the wire.
	measure := func(elastic bool) float64 {
		rc := router.DefaultConfig(0)
		rc.BufFlits = 1
		n := build(t, Config{Topo: mesh4(t), Router: rc, ElasticLinks: elastic, Seed: 22, Warmup: 100})
		n.Recorder().MeasureUntil = 2100
		const src, dst = 0, 3 // one row, 3 hops, single VC
		n.AttachClient(dst, ClientFunc(func(now int64, p *Port) { p.Deliveries() }))
		n.AttachClient(src, ClientFunc(func(now int64, p *Port) {
			if now < 2100 {
				_, _ = p.Send(dst, []byte{1}, flit.MaskFor(0), 0)
			}
		}))
		n.Run(2100)
		return float64(n.Recorder().WindowFlits) / 2000.0
	}
	credited := measure(false)
	elastic := measure(true)
	if credited > 0.5 {
		t.Fatalf("credited single-flit-buffer throughput %v; expected credit-loop throttling", credited)
	}
	if elastic < 0.9 {
		t.Fatalf("elastic throughput %v, want near 1 flit/cycle", elastic)
	}
	if elastic < 2*credited {
		t.Fatalf("elastic (%v) not clearly above credited (%v)", elastic, credited)
	}
}

func TestRingNetworkDelivery(t *testing.T) {
	// A 5x1 folded torus is a ring; dateline classes must keep it
	// deadlock-free under sustained load.
	topo, err := topology.NewFoldedTorus(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := build(t, Config{Topo: topo, Seed: 31})
	delivered := 0
	for tile := 0; tile < 5; tile++ {
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			delivered += len(p.Deliveries())
		}))
	}
	sent := 0
	for round := 0; round < 40; round++ {
		for src := 0; src < 5; src++ {
			dst := (src + 1 + round%4) % 5
			if dst == src {
				continue
			}
			if _, err := n.Port(src).Send(dst, make([]byte, 64), flit.VCMask(0xFF), 0); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	if !n.Drain(30000) {
		t.Fatalf("ring did not drain (occupancy %d)", n.Occupancy())
	}
	if delivered != sent {
		t.Fatalf("delivered %d of %d", delivered, sent)
	}
}

func TestAdaptiveMeshDelivery(t *testing.T) {
	n := build(t, Config{Topo: mesh4(t), Adaptive: true, Seed: 51})
	topo := n.Topology()
	delivered := 0
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			delivered += len(p.Deliveries())
		}))
	}
	sent := 0
	for round := 0; round < 15; round++ {
		for src := 0; src < topo.NumTiles(); src++ {
			dst := (src*5 + round + 1) % topo.NumTiles()
			if dst == src {
				continue
			}
			if _, err := n.Port(src).Send(dst, make([]byte, 96), flit.VCMask(0xFF), 0); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	if !n.Drain(60000) {
		t.Fatalf("adaptive mesh did not drain (occupancy %d)", n.Occupancy())
	}
	if delivered != sent {
		t.Fatalf("delivered %d of %d", delivered, sent)
	}
}

// TestAdaptiveMeshFewVCs runs adaptive routing with fewer VCs than the
// flit format's eight: the credit scan that picks the least-congested
// candidate must stop at the router's own VC count.
func TestAdaptiveMeshFewVCs(t *testing.T) {
	rc := router.DefaultConfig(0)
	rc.NumVCs = 4
	n := build(t, Config{Topo: mesh4(t), Router: rc, Adaptive: true, Seed: 53})
	topo := n.Topology()
	delivered := 0
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			delivered += len(p.Deliveries())
		}))
	}
	sent := 0
	for round := 0; round < 10; round++ {
		for src := 0; src < topo.NumTiles(); src++ {
			dst := (src*3 + round + 1) % topo.NumTiles()
			if dst == src {
				continue
			}
			if _, err := n.Port(src).Send(dst, make([]byte, 64), flit.VCMask(0x0F), 0); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	if !n.Drain(60000) {
		t.Fatalf("4-VC adaptive mesh did not drain (occupancy %d)", n.Occupancy())
	}
	if delivered != sent {
		t.Fatalf("delivered %d of %d", delivered, sent)
	}
}

// TestNewAllocationsFixed pins slab construction: routers, VC buffers,
// links and ports each come from a fixed number of allocations, so
// building a 32x32 die costs exactly as many as an 8x8 one, for the VC
// router and in deflection mode. Adjacency and route table are shared, as
// sweeps and warm-fork replicas share them.
func TestNewAllocationsFixed(t *testing.T) {
	for _, tc := range []struct {
		name string
		rc   router.Config
	}{
		{"vc", router.DefaultConfig(0)},
		{"deflect", deflectRouter()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(k int) float64 {
				topo, err := topology.NewFoldedTorus(k, k)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{
					Topo: topo, Router: tc.rc, Seed: 1, Shards: 1,
					Adjacency:  topology.Links(topo),
					RouteTable: route.BuildTable(topo, topo.NumTiles()),
				}
				return testing.AllocsPerRun(3, func() {
					if _, err := New(cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := allocs(8), allocs(32)
			if small != large {
				t.Fatalf("network.New allocates %.0f times at 8x8 but %.0f at 32x32; want the same count at every die size", small, large)
			}
			t.Logf("network.New: %.0f allocations at 8x8 and at 32x32", small)
		})
	}
}

func TestAdaptiveRejectedOnTorus(t *testing.T) {
	if _, err := New(Config{Topo: torus4(t), Router: router.DefaultConfig(0), Adaptive: true}); err == nil {
		t.Fatal("adaptive routing on a torus accepted (turn model does not cover wraps)")
	}
}

func TestAdaptiveNeverRoutesUnproductively(t *testing.T) {
	// With west-first candidates, every delivered packet's latency must
	// still be bounded by the minimal path (adaptivity only picks among
	// productive directions, so hop count equals the Manhattan distance).
	n := build(t, Config{Topo: mesh4(t), Adaptive: true, Seed: 52})
	topo := n.Topology()
	var bad int
	for tile := 0; tile < topo.NumTiles(); tile++ {
		tile := tile
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			for _, d := range p.Deliveries() {
				hops, _ := topology.PathMetrics(topo, d.Src, d.Dst)
				// Unloaded: exactly the minimal pipeline latency.
				if d.Arrived-d.Birth != int64(2*hops+2) {
					bad++
				}
			}
		}))
	}
	// One packet at a time, so the network is unloaded.
	for src := 0; src < topo.NumTiles(); src++ {
		for dst := 0; dst < topo.NumTiles(); dst++ {
			if src == dst {
				continue
			}
			if _, err := n.Port(src).Send(dst, []byte{1}, flit.MaskFor(0), 0); err != nil {
				t.Fatal(err)
			}
			n.Run(40)
		}
	}
	if bad != 0 {
		t.Fatalf("%d packets took non-minimal paths while unloaded", bad)
	}
}

func TestCutThroughDelivery(t *testing.T) {
	rc := router.DefaultConfig(0)
	rc.CutThrough = true
	rc.BufFlits = 4
	n := build(t, Config{Topo: torus4(t), Router: rc, Seed: 53})
	topo := n.Topology()
	delivered := 0
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
			delivered += len(p.Deliveries())
		}))
	}
	sent := 0
	for round := 0; round < 10; round++ {
		for src := 0; src < topo.NumTiles(); src++ {
			dst := (src + round + 1) % topo.NumTiles()
			if dst == src {
				continue
			}
			// 4-flit packets: exactly the buffer depth.
			if _, err := n.Port(src).Send(dst, make([]byte, 4*flit.DataBytes), flit.VCMask(0xFF), 0); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	if !n.Drain(60000) {
		t.Fatalf("cut-through network did not drain (occupancy %d)", n.Occupancy())
	}
	if delivered != sent {
		t.Fatalf("delivered %d of %d", delivered, sent)
	}
}

func TestCutThroughRejectsLongPackets(t *testing.T) {
	rc := router.DefaultConfig(0)
	rc.CutThrough = true
	rc.BufFlits = 2
	n := build(t, Config{Topo: torus4(t), Router: rc, Seed: 54})
	if _, err := n.Port(0).Send(1, make([]byte, 3*flit.DataBytes), flit.MaskFor(0), 0); err == nil {
		t.Fatal("3-flit packet accepted with 2-flit cut-through buffers")
	}
	if _, err := n.Port(0).Send(1, make([]byte, 2*flit.DataBytes), flit.MaskFor(0), 0); err != nil {
		t.Fatalf("2-flit packet rejected: %v", err)
	}
}

func TestReserveFlowRejectsAdaptiveRouting(t *testing.T) {
	rc := router.DefaultConfig(0)
	rc.ReservedVC = 7
	rc.ResPeriod = 8
	n := build(t, Config{Topo: mesh4(t), Router: rc, Adaptive: true, Seed: 61})
	if _, err := n.ReserveFlow(0, 10, 1, 0); err == nil {
		t.Fatal("reservations accepted under adaptive routing")
	}
}
