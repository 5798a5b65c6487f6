package core

import (
	"fmt"
	"math/rand"

	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/wiring"
)

// E15Registers reproduces the §2.1/§2.6 register interface: reservation
// registers are themselves network clients, and a management tile lays out
// a static flow entirely in-band.
func E15Registers(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "Internal network registers: in-band flow setup (§2.1, §2.6)",
		PaperClaim: "routes can address 'internal network registers'; static routes are " +
			"laid out 'by setting entries in the appropriate reservation register'",
		Columns: []string{"step", "expected", "measured"},
	}
	const (
		src, dst, mgmt = 0, 10, 15
		period, flow   = 8, 1
	)
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		return nil, err
	}
	rc := router.DefaultConfig(0)
	rc.ReservedVC = 7
	rc.ResPeriod = period
	n, err := opt.newNetwork(network.Config{Topo: topo, Router: rc, Seed: 51})
	if err != nil {
		return nil, err
	}
	cfg, err := protocol.NewConfigurator(topo, src, dst, flow, 0, flit.MaskFor(0))
	if err != nil {
		return nil, err
	}
	n.AttachClient(mgmt, cfg)
	stream := &traffic.StreamSource{
		Tile: src, Dst: dst, Period: period, Flow: flow, Reserved: true,
		Phase: 1 << 40, // held until configured
	}
	var agents []*protocol.RegisterAgent
	for tile := 0; tile < topo.NumTiles(); tile++ {
		if tile == mgmt {
			continue
		}
		agent := &protocol.RegisterAgent{Router: n.Router(tile), Mask: flit.MaskFor(1)}
		agents = append(agents, agent)
		if tile == src {
			n.AttachClient(tile, protocol.AgentWith(agent, stream))
		} else {
			n.AttachClient(tile, agent)
		}
	}
	ok := n.Kernel().RunUntil(func() bool { return cfg.Done }, 10000)
	t.AddRow("configuration completes in-band", "yes", fmt.Sprint(ok && !cfg.Failed))
	setupCycles := n.Kernel().Now()
	hops, _ := topology.PathMetrics(topo, src, dst)
	t.AddRow("hops programmed over the network", fmt.Sprint(hops), fmt.Sprint(cfg.Hops()))
	var programmed int64
	for _, a := range agents {
		programmed += a.Programmed
	}
	t.AddRow("register writes acknowledged", fmt.Sprint(hops), fmt.Sprint(programmed))
	t.AddRow("setup time", "a few round trips", fmt.Sprintf("%d cycles", setupCycles))

	// Start the stream on a phase-aligned cycle; jitter must be zero.
	span := int64(2000)
	if quick {
		span = 1000
	}
	start := ((setupCycles / period) + 1) * period
	stream.Phase = start
	stream.StopAt = start + span
	n.Run(stream.StopAt + 100 - setupCycles)
	rec := n.Recorder()
	lat := rec.FlowLatency(flow)
	if lat == nil || lat.Count() == 0 {
		return nil, fmt.Errorf("core: E15 stream delivered nothing")
	}
	t.AddRow("stream jitter after in-band setup", "0 cycles",
		fmt.Sprintf("%d cycles over %d packets", rec.FlowJitter(flow), lat.Count()))
	return t, nil
}

// E16TimingClosure reproduces the §4.1 methodology argument: dedicated
// global wiring sized from a statistical wire model leaves some drivers
// undersized, and each repair iteration perturbs other nets; the
// structured network wiring is characterized once.
func E16TimingClosure(quick bool, _ Options) (*Table, error) {
	t := &Table{
		ID:    "E16",
		Title: "Timing closure: statistical wire model vs structured wiring (§4.1)",
		PaperClaim: "synthesis tools size drivers according to a statistical wire model that " +
			"oversizes most of the drivers but undersizes enough of the drivers to make " +
			"timing closure a difficult problem ... knowing these parameters at the " +
			"beginning of the design process ... minimizes late-stage design iterations",
		Columns: []string{"flow", "nets", "initially failing", "ECO iterations to close"},
	}
	nets := 5000
	if quick {
		nets = 2000
	}
	for _, margin := range []float64{1.5, 2.0, 2.5} {
		s := wiring.RunSizingStudy(nets, margin, 2.0, 500, rand.New(rand.NewSource(61)))
		t.AddRow(
			fmt.Sprintf("auto-routed, %.0f%% timing margin", (margin-1)*100),
			fmt.Sprint(s.Nets),
			fmt.Sprintf("%d (%s)", s.InitialViolators, pct(float64(s.InitialViolators)/float64(s.Nets))),
			fmt.Sprint(s.Iterations))
	}
	t.AddRow("structured on-chip network wiring", "all top-level", "0 (pre-characterized)",
		fmt.Sprint(wiring.StructuredClosurePasses()))
	t.AddNote("the network's wires are identical and planned up front, so their L, R, C are known at design start (§4.1)")
	return t, nil
}
