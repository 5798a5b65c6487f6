package core

import (
	"fmt"

	"repro/internal/area"
	"repro/internal/circuits"
	"repro/internal/flit"
	"repro/internal/topology"
	"repro/internal/wiring"
)

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// E1Baseline reproduces the §2 example network: the 4x4 folded torus with
// the 0,2,3,1 fold, checked structurally and then exercised end to end.
func E1Baseline(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Baseline 16-tile folded torus (Fig. 1)",
		PaperClaim: "16 tiles of 3mm x 3mm on a 12mm die; folded torus with rows " +
			"cyclically connected 0,2,3,1; reliable datagram delivery",
		Columns: []string{"property", "paper", "measured"},
	}
	topo, err := BuildTopology("torus", 4)
	if err != nil {
		return nil, err
	}
	a := topology.Analyze(topo)
	t.AddRow("tiles", "16", fmt.Sprint(a.Tiles))
	t.AddRow("fold order (radix 4)", "0,2,3,1", fmt.Sprint(topology.FoldOrder(4)))
	t.AddRow("max link length (pitches)", "short (folded)", f1(maxLinkLen(topo)))
	t.AddRow("channels", "64 unidirectional", fmt.Sprint(a.Channels))
	t.AddRow("bisection channels", "2x mesh", fmt.Sprint(a.BisectionChannels))

	p := DefaultRunParams()
	p.Options = opt
	p.Rate = 0.05
	if quick {
		p.MeasureCycles = 1500
	}
	res, err := Run(p)
	if err != nil {
		return nil, err
	}
	t.AddRow("delivered packets", "> 0, all intact", fmt.Sprint(res.DeliveredPackets))
	zeroLoad := 2*a.AvgHops + 2
	t.AddRow("avg latency at 5% load (cycles)", fmt.Sprintf("~%.1f (2H+2)", zeroLoad), f2(res.AvgLatency))
	t.AddNote("layout:\n%s", topology.Layout(topo))
	return t, nil
}

func maxLinkLen(t topology.Topology) float64 {
	best := 0.0
	for _, l := range topology.Links(t) {
		if l.Length > best {
			best = l.Length
		}
	}
	return best
}

// E2Area reproduces the §2.4 area model.
func E2Area(quick bool, _ Options) (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "Router area overhead (§2.4)",
		PaperClaim: "~10^4 buffer bits per edge; <50µm strip per 3mm edge; 0.59mm² " +
			"total = 6.6% of tile; ~3000 of 6000 wiring tracks",
		Columns: []string{"quantity", "paper", "model"},
	}
	rep, err := area.Evaluate(area.Paper())
	if err != nil {
		return nil, err
	}
	t.AddRow("buffer bits / edge", "~10^4", fmt.Sprint(rep.BufferBitsPerEdge))
	t.AddRow("edge strip width", "<50 µm", fmt.Sprintf("%.1f µm", rep.EdgeStripWidthUM))
	t.AddRow("router area / tile", "0.59 mm²", fmt.Sprintf("%.3f mm²", rep.RouterAreaMM2))
	t.AddRow("area overhead", "6.6%", pct(rep.OverheadFraction))
	t.AddRow("wiring tracks used", "~3000 / 6000", fmt.Sprintf("%d / %d", rep.TracksUsed, rep.TracksAvailable))
	// §3.2 corollary: buffers dominate, so area scales with buffering.
	for _, bufs := range []int{1, 2, 4, 8} {
		p := area.Paper().WithBuffers(8, bufs)
		t.AddRow(fmt.Sprintf("overhead @ %d flits/VC", bufs), "-", pct(p.OverheadFraction()))
	}
	t.AddNote("buffer storage dominates the router area, which is why §3.2 ties buffer count to area overhead")
	return t, nil
}

// E3Power reproduces the §3.1 mesh/torus power comparison, analytically
// and from simulated energy accounting.
func E3Power(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Mesh vs folded torus power (§3.1)",
		PaperClaim: "wire power dominates hop power; the torus burns <15% more power " +
			"but has 2x the bisection bandwidth",
		Columns: []string{"model", "mesh J/flit", "torus J/flit", "torus overhead"},
	}
	m := PaperPowerModel()
	ideal := m.ComparePaper(4, 2.0)
	t.AddRow("paper closed form (2-pitch torus hops)",
		fmt.Sprintf("%.3g", ideal.Mesh.TotalJ), fmt.Sprintf("%.3g", ideal.Torus.TotalJ), pct(ideal.TorusOverhead))
	fold := m.ComparePaper(4, 1.5)
	t.AddRow("paper closed form (actual 1.5-pitch fold)",
		fmt.Sprintf("%.3g", fold.Mesh.TotalJ), fmt.Sprintf("%.3g", fold.Torus.TotalJ), pct(fold.TorusOverhead))
	exact, err := m.CompareExact(4)
	if err != nil {
		return nil, err
	}
	t.AddRow("exact expectation (fold geometry)",
		fmt.Sprintf("%.3g", exact.Mesh.TotalJ), fmt.Sprintf("%.3g", exact.Torus.TotalJ), pct(exact.TorusOverhead))

	// Simulated: identical low-load uniform traffic on both topologies.
	sim := func(topoName string) (RunResult, error) {
		p := DefaultRunParams()
		p.Options = opt
		p.Topology = topoName
		p.Rate = 0.05
		if quick {
			p.MeasureCycles = 1500
		}
		return Run(p)
	}
	mres, err := sim("mesh")
	if err != nil {
		return nil, err
	}
	tres, err := sim("torus")
	if err != nil {
		return nil, err
	}
	overhead := tres.EnergyPerFlit/mres.EnergyPerFlit - 1
	t.AddRow("simulated (uniform @ 5% load)",
		fmt.Sprintf("%.3g", mres.EnergyPerFlit), fmt.Sprintf("%.3g", tres.EnergyPerFlit), pct(overhead))

	meshA := topology.Analyze(mustTopo("mesh"))
	torusA := topology.Analyze(mustTopo("torus"))
	t.AddNote("bisection: mesh %d vs torus %d channels (2.0x); wire demand %0.f vs %.0f pitches (2.0x)",
		meshA.BisectionChannels, torusA.BisectionChannels, meshA.WireDemand, torusA.WireDemand)
	t.AddNote("wire fraction of flit energy: mesh %s, torus %s (wire power dominates, as §3.1 assumes)",
		pct(exact.Mesh.WireFrac), pct(exact.Torus.WireFrac))
	t.AddNote("the <15%% claim holds for the actual fold (1.5 pitches/hop); idealized 2-pitch hops overshoot it")
	return t, nil
}

func mustTopo(name string) topology.Topology {
	topo, err := BuildTopology(name, 4)
	if err != nil {
		panic(err)
	}
	return topo
}

// E6Circuits reproduces the §4.1 signaling comparison and the latency
// head-to-head against dedicated full-swing wires.
func E6Circuits(quick bool, _ Options) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "Pulsed low-swing signaling (§4.1)",
		PaperClaim: "100mV low-swing drivers: ~10x lower power, ~3x signal velocity, " +
			"~3x repeater spacing; pre-scheduled network latency can beat a dedicated " +
			"full-swing wire with optimal repeaters",
		Columns: []string{"quantity", "paper", "model"},
	}
	p := circuits.Process100nm()
	fs, ls := circuits.FullSwing(p), circuits.LowSwing(p)
	t.AddRow("power ratio (full/low swing)", "10x", f1(ls.PowerRatio(fs))+"x")
	t.AddRow("velocity ratio", "3x", f1(ls.VelocityMMPerS/fs.VelocityMMPerS)+"x")
	t.AddRow("repeater spacing ratio", "3x", f1(ls.RepeaterSpacingMM/fs.RepeaterSpacingMM)+"x")
	t.AddRow("full-swing repeaters per 3mm tile", ">=1", fmt.Sprint(fs.Repeaters(p.TilePitchMM)))
	t.AddRow("low-swing repeaters per 3mm tile", "0", fmt.Sprint(ls.Repeaters(p.TilePitchMM)))

	for _, span := range []float64{3, 6, 9, 12} {
		c := wiring.CompareLatency(p, span, p.TilePitchMM, 0.5, 0.05)
		verdict := "dedicated"
		if c.NetworkWinsPre {
			verdict = "network"
		}
		t.AddRow(fmt.Sprintf("latency @ %.0fmm span", span),
			fmt.Sprintf("dedicated %.2fns", c.DedicatedNS),
			fmt.Sprintf("pre-sched net %.2fns, dynamic %.2fns -> %s wins", c.NetworkPreNS, c.NetworkNS, verdict))
	}
	t.AddNote("router delay: 0.5ns/hop dynamic (1 cycle @ 2GHz), 0.05ns/hop pre-scheduled bypass")
	return t, nil
}

// E9DutyFactor reproduces §4.4: dedicated wires idle; shared network wires
// do not.
func E9DutyFactor(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "Wire duty factor (§4.4)",
		PaperClaim: "the average wire on a typical chip toggles <10% of the time; a " +
			"network shares wires and achieves a much higher duty factor",
		Columns: []string{"design", "wires", "duty factor"},
	}
	flows := []wiring.Flow{
		{Name: "cpu-mem", LengthMM: 6, WidthBits: 64, PeakBitsPerCycle: 64, AvgBitsPerCycle: 5},
		{Name: "dsp-mem", LengthMM: 9, WidthBits: 64, PeakBitsPerCycle: 64, AvgBitsPerCycle: 4},
		{Name: "video-in", LengthMM: 12, WidthBits: 32, PeakBitsPerCycle: 32, AvgBitsPerCycle: 3},
		{Name: "periph", LengthMM: 9, WidthBits: 32, PeakBitsPerCycle: 32, AvgBitsPerCycle: 2},
	}
	ded, err := wiring.PlanDedicated(flows, circuits.FullSwing(circuits.Process100nm()))
	if err != nil {
		return nil, err
	}
	t.AddRow("dedicated point-to-point wires", fmt.Sprint(ded.Wires), pct(ded.DutyFactor))
	sh, err := wiring.PlanShared(flows, 64, 2, 6, 2)
	if err != nil {
		return nil, err
	}
	t.AddRow("shared 2x64b network spine (planned)", fmt.Sprint(sh.Wires), pct(sh.DutyFactor))

	// Simulated: the baseline network at moderate and heavy load.
	for _, rate := range []float64{0.1, 0.3, 0.6} {
		p := DefaultRunParams()
		p.Options = opt
		p.Rate = rate
		if quick {
			p.MeasureCycles = 1500
		}
		res, err := Run(p)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("simulated torus links @ %.0f%% load", rate*100),
			"64 channels x 300b",
			fmt.Sprintf("mean %s, max %s", pct(res.LinkUtilMean), pct(res.LinkUtilMax)))
	}
	// §4.4's closing point: "we operate on-chip networks with very high
	// duty factors - over 100% if we transmit several bits per cycle."
	// With the §3.3 wire rate, each busy link cycle toggles the wire
	// bitsPerClock times.
	proc := circuits.Process100nm()
	p := DefaultRunParams()
	p.Options = opt
	p.Rate = 0.6
	if quick {
		p.MeasureCycles = 1500
	}
	res, err := Run(p)
	if err != nil {
		return nil, err
	}
	for _, clockHz := range []float64{1e9, 200e6} {
		bpc := proc.BitsPerClock(clockHz)
		t.AddRow(fmt.Sprintf("toggles/clock @ %.1fGHz clock, %.0f%% load", clockHz/1e9, p.Rate*100),
			fmt.Sprintf("%.0f bits/clock wires", bpc),
			pct(res.LinkUtilMean*bpc))
	}
	t.AddNote("with multi-bit signaling the busiest wires toggle more than once per clock — the >100%% duty factor of §4.4")
	return t, nil
}

// E10Partition reproduces §4.2: splitting the 256-bit interface into eight
// 32-bit networks.
func E10Partition(quick bool, _ Options) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Interface partitioning (§4.2)",
		PaperClaim: "small payloads waste a 256-bit flit; eight 32-bit networks use a " +
			"fraction of the interface per small transfer at the cost of duplicated control",
		Columns: []string{"payload", "1x256 efficiency", "8x32 efficiency", "8x32 concurrent small pkts"},
	}
	for _, bits := range []int{8, 16, 32, 64, 128, 256} {
		wide := float64(bits) / 256.0
		sub := (bits + 31) / 32 // subnetworks a transfer occupies
		narrow := float64(bits) / float64(sub*32)
		t.AddRow(fmt.Sprintf("%d b", bits), pct(wide), pct(narrow), fmt.Sprint(8/sub))
	}
	ctrlWide := float64(flit.OverheadBits) / float64(flit.OverheadBits+256)
	ctrlNarrow := float64(flit.OverheadBits) / float64(flit.OverheadBits+32)
	t.AddNote("control overhead per flit: %s of the wide interface vs %s per 32b partition (the §4.2 'additional signal overhead')",
		pct(ctrlWide), pct(ctrlNarrow))
	t.AddNote("partitioning multiplies small-payload injection concurrency by up to 8x without adding wires")
	return t, nil
}

// E13Serdes reproduces §3.3's per-wire bandwidth arithmetic and the §2.3
// trade of wiring for controller logic, simulated with serialized links.
func E13Serdes(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "Bits per wire per clock; serialized links (§3.3)",
		PaperClaim: "4Gb/s per wire is 2-20 bits per clock (2GHz-200MHz); driving wires " +
			"faster than the router clock trades wiring for controller logic",
		Columns: []string{"config", "paper", "measured"},
	}
	p := circuits.Process100nm()
	for _, f := range []float64{200e6, 500e6, 1e9, 2e9} {
		t.AddRow(fmt.Sprintf("bits/clock @ %.1fGHz", f/1e9),
			map[float64]string{200e6: "20", 2e9: "2"}[f],
			f1(p.BitsPerClock(f)))
	}
	// Simulated: a flit serialized over narrower links takes serdes cycles
	// per hop; zero-load latency grows, saturation throughput falls in
	// proportion to the wire budget saved.
	for _, serdes := range []int{1, 2, 4} {
		rp := DefaultRunParams()
		rp.Options = opt
		rp.SerdesCycles = serdes
		rp.Rate = 0.05
		if quick {
			rp.MeasureCycles = 1500
		}
		res, err := Run(rp)
		if err != nil {
			return nil, err
		}
		// Saturation probe at a high offered rate.
		rp.Rate = 0.95 / float64(serdes)
		sat, err := Run(rp)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("serdes %dx (1/%d wire budget)", serdes, serdes),
			"-",
			fmt.Sprintf("zero-load %.1fcyc, accepted %.3f flit/node/cyc", res.AvgLatency, sat.AcceptedFlits))
	}
	return t, nil
}
