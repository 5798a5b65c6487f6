package core

import (
	"fmt"

	"repro/internal/circuits"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/wiring"
)

// attachBackground fills every tile not in excluded with a uniform
// Bernoulli generator at the given rate.
func attachBackground(n *network.Network, rate float64, stopAt int64, seed int64, mask flit.VCMask, excluded map[int]bool) {
	topo := n.Topology()
	for tile := 0; tile < topo.NumTiles(); tile++ {
		if excluded[tile] {
			continue
		}
		g := traffic.NewGenerator(tile, traffic.Uniform{Tiles: topo.NumTiles()}, rate, 4, mask, seed)
		g.StopAt = stopAt
		n.AttachClient(tile, g)
	}
}

// E7LogicalWire measures the §2.2 logical-wire service end to end and
// compares it against a dedicated wire.
func E7LogicalWire(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "Logical wires over the network (§2.2)",
		PaperClaim: "an 8-bit bundle is transported as single-flit packets; the latency " +
			"of transporting wire state this way can be made competitive with dedicated wires",
		Columns: []string{"background load", "updates", "latency p50/p99/max (cyc)", "latency @2GHz"},
	}
	const src, dst = 0, 10
	cycles := int64(6000)
	if quick {
		cycles = 2500
	}
	for _, bg := range []float64{0.0, 0.2, 0.4} {
		topo, err := topology.NewFoldedTorus(4, 4)
		if err != nil {
			return nil, err
		}
		rc := router.DefaultConfig(0)
		rc.PriorityVCs = flit.MaskFor(7) // wire updates ride a priority VC
		n, err := opt.newNetwork(network.Config{Topo: topo, Router: rc, Seed: 3})
		if err != nil {
			return nil, err
		}
		sender := &protocol.WireSender{Bundle: protocol.WireBundle{ID: 1}, Dst: dst, Mask: flit.MaskFor(7), Class: 9}
		recv := protocol.NewWireReceiver()
		// Toggle the bundle every 50 cycles.
		n.AttachClient(src, network.ClientFunc(func(now int64, p *network.Port) {
			if now%50 == 0 && now < cycles-200 {
				sender.Set(byte(now/50), now)
			}
			sender.Tick(now, p)
		}))
		n.AttachClient(dst, recv)
		// Background avoids the priority pair (bits 3 and 7 map to the
		// same VC pair under dateline classes).
		attachBackground(n, bg, cycles-200, 11, flit.VCMask(0x77), map[int]bool{src: true, dst: true})
		n.Run(cycles)
		lat := recv.Latency
		t.AddRow(pct(bg), fmt.Sprint(lat.Count()),
			fmt.Sprintf("%d/%d/%d", lat.Median(), lat.P99(), lat.Max()),
			fmt.Sprintf("%.1f ns", float64(lat.Median())*0.5))
	}
	// Dedicated-wire reference over the same physical span.
	topo, _ := topology.NewFoldedTorus(4, 4)
	_, dist := topology.PathMetrics(topo, src, dst)
	span := dist * 3.0
	c := wiring.CompareLatency(circuits.Process100nm(), span, 3.0, 0.5, 0.05)
	t.AddNote("same span on a dedicated full-swing wire (%.0fmm): %.2f ns; pre-scheduled network path: %.2f ns",
		span, c.DedicatedNS, c.NetworkPreNS)
	t.AddNote("the priority VC keeps the p50 at the unloaded pipeline latency even under background load")
	return t, nil
}

// E8Reservation reproduces §2.6: a pre-scheduled CBR stream keeps zero
// jitter under dynamic load; the same stream without reservations does
// not.
func E8Reservation(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "Pre-scheduled vs dynamic stream delivery (§2.6)",
		PaperClaim: "a pre-scheduled packet moves from link to link without arbitration " +
			"or delay using the reservations; dynamic traffic uses the remaining cycles",
		Columns: []string{"background load", "mode", "stream packets", "latency p50/max (cyc)", "jitter (cyc)"},
	}
	const src, dst, period = 0, 10, 8
	cycles := int64(6000)
	if quick {
		cycles = 2500
	}
	run := func(bg float64, reserved bool) (*network.Recorder, error) {
		topo, err := topology.NewFoldedTorus(4, 4)
		if err != nil {
			return nil, err
		}
		rc := router.DefaultConfig(0)
		rc.ReservedVC = 7
		rc.ResPeriod = period
		n, err := opt.newNetwork(network.Config{Topo: topo, Router: rc, Seed: 5})
		if err != nil {
			return nil, err
		}
		const flow = 1
		if reserved {
			if _, err := n.ReserveFlow(src, dst, flow, 0); err != nil {
				return nil, err
			}
		}
		stream := &traffic.StreamSource{
			Tile: src, Dst: dst, Period: period, Flow: flow,
			Reserved: reserved, Mask: flit.VCMask(0x7F), Class: 5,
			StopAt: cycles - 300,
		}
		n.AttachClient(src, stream)
		n.AttachClient(dst, network.ClientFunc(func(now int64, p *network.Port) { p.Deliveries() }))
		attachBackground(n, bg, cycles-300, 13, flit.VCMask(0x7F), map[int]bool{src: true, dst: true})
		n.Run(cycles)
		return n.Recorder(), nil
	}
	for _, bg := range []float64{0.0, 0.3, 0.6} {
		for _, reserved := range []bool{true, false} {
			rec, err := run(bg, reserved)
			if err != nil {
				return nil, err
			}
			mode := "dynamic"
			lat := rec.ClassLatency(5) // the stream's service class
			if reserved {
				mode = "reserved"
				lat = rec.FlowLatency(1)
			}
			if lat == nil || lat.Count() == 0 {
				return nil, fmt.Errorf("core: E8 stream (%s @ %v) delivered nothing", mode, bg)
			}
			jitter := lat.Max() - lat.Quantile(0)
			t.AddRow(pct(bg), mode, fmt.Sprint(lat.Count()),
				fmt.Sprintf("%d/%d", lat.Median(), lat.Max()),
				fmt.Sprint(jitter))
		}
	}
	t.AddNote("reserved rows must show jitter 0 at every load; the dynamic stream's jitter grows with load")
	return t, nil
}

// E14Interface checks the §2.1 port semantics directly.
func E14Interface(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:         "E14",
		Title:      "Port interface semantics (§2.1)",
		PaperClaim: "log-size encoding 0..8; a flit may be head and tail; VC mask is a class of service; low-priority injection is interrupted and resumed",
		Columns:    []string{"check", "expected", "measured"},
	}
	// Size encoding.
	okSizes := true
	for code := flit.SizeCode(0); code <= flit.MaxSizeCode; code++ {
		if flit.SizeCode(code).Bits() != 1<<code {
			okSizes = false
		}
	}
	t.AddRow("size code 0..8 decodes 1..256 bits", "yes", fmt.Sprint(okSizes))

	// Head+tail single-flit packet and priority interruption, on a live
	// network.
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		return nil, err
	}
	rc := router.DefaultConfig(0)
	n, err := opt.newNetwork(network.Config{Topo: topo, Router: rc, Seed: 9})
	if err != nil {
		return nil, err
	}
	var shortAt, longAt int64
	n.AttachClient(2, network.ClientFunc(func(now int64, p *network.Port) {
		for _, d := range p.Deliveries() {
			if d.Class == 9 {
				shortAt = now
			} else {
				longAt = now
			}
		}
	}))
	if _, err := n.Port(0).Send(2, make([]byte, 12*flit.DataBytes), flit.MaskFor(0), 0); err != nil {
		return nil, err
	}
	n.Run(4)
	if _, err := n.Port(0).Send(2, []byte("hi"), flit.MaskFor(1), 9); err != nil {
		return nil, err
	}
	n.Run(300)
	t.AddRow("single-flit (head+tail) packet delivered", "yes", fmt.Sprint(shortAt > 0))
	t.AddRow("high-priority overtakes 12-flit low-priority", "yes",
		fmt.Sprintf("%v (short @%d, long @%d)", shortAt < longAt, shortAt, longAt))

	// Size-field power gating: wire energy scales with the size field.
	// Every flit also drives the control overhead, so the model's ratio
	// is a full flit's bits over the small payload plus overhead.
	const smallBytes = 2 // 16-bit payload
	small, err := singleFlitWireEnergy(opt, smallBytes)
	if err != nil {
		return nil, err
	}
	large, err := singleFlitWireEnergy(opt, flit.DataBytes) // 256-bit payload
	if err != nil {
		return nil, err
	}
	smallBits := 8*smallBytes + flit.OverheadBits
	t.AddRow("wire energy 256b vs 16b payload",
		fmt.Sprintf("%.1fx (%d/%d incl. overhead)", float64(flit.TotalBits)/float64(smallBits), flit.TotalBits, smallBits),
		fmt.Sprintf("%.1fx", large/small))
	return t, nil
}

// singleFlitWireEnergy sends one single-flit packet with the given
// payload bytes across two hops and reports the wire energy.
func singleFlitWireEnergy(opt Options, payloadBytes int) (float64, error) {
	p := DefaultRunParams()
	p.Options = opt
	n, err := BuildNetwork(p)
	if err != nil {
		return 0, err
	}
	n.AttachClient(5, network.ClientFunc(func(now int64, p *network.Port) { p.Deliveries() }))
	if _, err := n.Port(0).Send(5, make([]byte, payloadBytes), flit.MaskFor(0), 0); err != nil {
		return 0, err
	}
	n.Drain(1000)
	_, wireJ := PaperPowerModel().ActivityEnergy(n.Activity())
	return wireJ, nil
}
