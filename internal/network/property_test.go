package network

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/flit"
	"repro/internal/router"
	"repro/internal/topology"
)

// TestConservationProperty drives randomized scenarios (topology, VC
// shapes, payload sizes, loads) and checks the global invariants on each:
// every generated packet is delivered exactly once with an intact payload,
// the network drains completely, and latency is at least the pipeline
// bound.
func TestConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		var topo topology.Topology
		var err error
		if rng.Intn(2) == 0 {
			topo, err = topology.NewMesh(3+rng.Intn(3), 3+rng.Intn(3))
		} else {
			topo, err = topology.NewFoldedTorus(3+rng.Intn(3), 3+rng.Intn(3))
		}
		if err != nil {
			t.Fatal(err)
		}
		rc := router.DefaultConfig(0)
		rc.NumVCs = []int{2, 4, 8}[rng.Intn(3)]
		rc.BufFlits = 1 + rng.Intn(4)
		n, err := New(Config{Topo: topo, Router: rc, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		mask := flit.VCMask((1 << rc.NumVCs) - 1)

		type sent struct {
			payload []byte
			dst     int
		}
		expect := map[uint64]sent{}
		got := map[uint64]int{}
		tiles := topo.NumTiles()
		for tile := 0; tile < tiles; tile++ {
			tile := tile
			n.AttachClient(tile, ClientFunc(func(now int64, p *Port) {
				for _, d := range p.Deliveries() {
					got[d.PacketID]++
					want, ok := expect[d.PacketID]
					if !ok {
						t.Errorf("trial %d: unknown packet %d delivered", trial, d.PacketID)
						continue
					}
					if want.dst != tile {
						t.Errorf("trial %d: packet %d delivered to %d, want %d", trial, d.PacketID, tile, want.dst)
					}
					if !bytes.Equal(d.Payload, want.payload) {
						t.Errorf("trial %d: packet %d payload corrupted", trial, d.PacketID)
					}
					hops, _ := topology.PathMetrics(topo, d.Src, d.Dst)
					if d.Src != d.Dst && d.Arrived-d.Birth < int64(2*hops+2) {
						t.Errorf("trial %d: packet %d latency %d below pipeline bound %d",
							trial, d.PacketID, d.Arrived-d.Birth, 2*hops+2)
					}
				}
			}))
		}
		// Offer a random burst of packets during the first 300 cycles.
		burst := 50 + rng.Intn(150)
		for i := 0; i < burst; i++ {
			src := rng.Intn(tiles)
			dst := rng.Intn(tiles)
			if dst == src {
				continue
			}
			payload := make([]byte, 1+rng.Intn(4*flit.DataBytes))
			rng.Read(payload)
			id, err := n.Port(src).Send(dst, payload, mask, rng.Intn(3))
			if err != nil {
				t.Fatal(err)
			}
			expect[id] = sent{payload: append([]byte(nil), payload...), dst: dst}
			if rng.Intn(4) == 0 {
				n.Run(int64(rng.Intn(5)))
			}
		}
		if !n.Drain(200000) {
			t.Fatalf("trial %d (%s vcs=%d buf=%d): did not drain, occupancy %d",
				trial, topo.Name(), rc.NumVCs, rc.BufFlits, n.Occupancy())
		}
		for id := range expect {
			if got[id] != 1 {
				t.Fatalf("trial %d: packet %d delivered %d times", trial, id, got[id])
			}
		}
		if n.Recorder().DeliveredPackets != int64(len(expect)) {
			t.Fatalf("trial %d: recorder says %d, expect %d", trial, n.Recorder().DeliveredPackets, len(expect))
		}
	}
}

// TestNoCrossTalkBetweenPackets checks that concurrent packets between the
// same pair on different VCs never interleave payload bytes.
func TestNoCrossTalkBetweenPackets(t *testing.T) {
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	deliveries := 0
	n.AttachClient(9, ClientFunc(func(now int64, p *Port) {
		for _, d := range p.Deliveries() {
			deliveries++
			for _, b := range d.Payload {
				if b != d.Payload[0] {
					t.Fatalf("packet %d mixed bytes %d and %d", d.PacketID, d.Payload[0], b)
				}
			}
		}
	}))
	// Eight concurrent multi-flit packets from the same source, each a
	// solid run of one byte value, one per VC.
	for v := 0; v < 8; v++ {
		payload := bytes.Repeat([]byte{byte(0x10 + v)}, 5*flit.DataBytes)
		if _, err := n.Port(0).Send(9, payload, flit.MaskFor(v%8), v); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Drain(5000) {
		t.Fatal("did not drain")
	}
	if deliveries != 8 {
		t.Fatalf("delivered %d of 8", deliveries)
	}
}

func TestRecorderThroughputWindow(t *testing.T) {
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	n.AttachClient(3, ClientFunc(func(now int64, p *Port) { p.Deliveries() }))
	for i := 0; i < 10; i++ {
		if _, err := n.Port(0).Send(3, []byte{byte(i)}, flit.VCMask(0xFF), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(100)
	rec := n.Recorder()
	tp := rec.ThroughputFlitsPerCycle(n.Kernel().Now())
	if tp <= 0 {
		t.Fatalf("throughput = %v, want positive", tp)
	}
	if rec.ThroughputFlitsPerCycle(0) != 0 {
		t.Fatal("throughput over empty span not zero")
	}
}
