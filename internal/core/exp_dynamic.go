package core

import (
	"fmt"
	"math/rand"

	"repro/internal/area"
	"repro/internal/bus"
	"repro/internal/router"
	"repro/internal/sim"
)

// E4LoadLatency sweeps offered load on the mesh and the folded torus under
// uniform traffic: the §3.1 "larger effective bandwidth of the torus".
func E4LoadLatency(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "Load-latency: mesh vs folded torus (§3.1)",
		PaperClaim: "the folded torus has twice the bisection bandwidth of the mesh; " +
			"its larger effective bandwidth outweighs its <15% power overhead",
		Columns: []string{"offered (flit/node/cyc)", "mesh lat (cyc)", "mesh accepted", "torus lat (cyc)", "torus accepted"},
	}
	rates := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	if quick {
		rates = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	// Radix 8: uniform dimension-ordered traffic caps a k-ary 2-mesh at
	// 4/k flits/node/cycle and the torus at min(1, 8/k), so the paper's
	// bisection argument is visible (at the paper's k=4 both hit the
	// injection limit and the topologies tie).
	base := DefaultRunParams()
	base.Options = opt
	base.K = 8
	base.FlitsPerPacket = 4
	if quick {
		base.WarmupCycles, base.MeasureCycles = 500, 1200
	}
	meshParams, torusParams := base, base
	meshParams.Topology = "mesh"
	torusParams.Topology = "torus"
	mesh, err := Sweep(meshParams, rates)
	if err != nil {
		return nil, err
	}
	torus, err := Sweep(torusParams, rates)
	if err != nil {
		return nil, err
	}
	for i := range rates {
		m, to := mesh[i].Result, torus[i].Result
		t.AddRow(f2(rates[i]),
			f1(m.AvgLatency), f3(m.AcceptedFlits),
			f1(to.AvgLatency), f3(to.AcceptedFlits))
	}
	satM, satT := SaturationRate(mesh), SaturationRate(torus)
	t.AddNote("8x8 networks, uniform traffic, 4-flit packets")
	t.AddNote("saturation throughput: mesh %.2f vs torus %.2f flit/node/cyc (ratio %.2fx; paper's bisection argument predicts ~2x, capped by the 1 flit/cycle injection port)",
		satM, satT, satT/satM)
	t.AddNote("theory: uniform DOR caps the mesh at 4/k = 0.50 and the torus at min(1, 8/k) = 1.00 flits/node/cycle at k=8")
	return t, nil
}

// E5FlowControl reproduces the §3.2 trade-off: buffer budget vs
// performance across virtual-channel, dropping, and misrouting flow
// control.
func E5FlowControl(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:    "E5",
		Title: "Flow control vs buffer budget (§3.2)",
		PaperClaim: "dropping or misrouting on contention needs very little buffering " +
			"but reduces performance and increases wire loading (wasted power)",
		Columns: []string{"flow control", "buffer bits/edge", "area overhead", "avg lat (cyc)", "delivered/offered", "wire J per delivered flit"},
	}
	type variant struct {
		name     string
		mut      func(*RunParams)
		vcs, buf int
	}
	variants := []variant{
		{"VC credit, 8VCx4", func(p *RunParams) { p.NumVCs, p.BufFlits = 8, 4 }, 8, 4},
		{"VC credit, 8VCx1", func(p *RunParams) { p.NumVCs, p.BufFlits = 8, 1 }, 8, 1},
		{"VC credit, 2VCx1", func(p *RunParams) { p.NumVCs, p.BufFlits = 2, 1 }, 2, 1},
		{"elastic links, 8VCx1 (§3.3/[4])", func(p *RunParams) { p.NumVCs, p.BufFlits = 8, 1; p.ElasticLinks = true }, 8, 1},
		{"drop on contention, 1VCx1", func(p *RunParams) { p.NumVCs, p.BufFlits = 1, 1; p.Mode = router.ModeDrop }, 1, 1},
		{"misroute (deflect), 1-flit regs", func(p *RunParams) { p.Mode = router.ModeDeflect }, 1, 1},
	}
	const rate = 0.35
	// Each variant is an independent network; fan them across the pool and
	// emit rows in declaration order.
	results := make([]RunResult, len(variants))
	err := sim.ForEach(len(variants), opt.Parallelism, func(i int) error {
		p := DefaultRunParams()
		p.Options = opt
		p.Topology = "mesh" // elastic links need acyclic channels; keep all variants comparable
		p.Rate = rate
		p.FlitsPerPacket = 1 // single-flit packets for apples-to-apples
		if quick {
			p.WarmupCycles, p.MeasureCycles = 500, 1500
		}
		variants[i].mut(&p)
		res, err := Run(p)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		res := results[i]
		ap := area.Paper().WithBuffers(v.vcs, v.buf)
		var wirePerFlit float64
		if res.DeliveredPackets > 0 {
			wirePerFlit = res.WireEnergyJ / float64(res.DeliveredPackets)
		}
		t.AddRow(v.name,
			fmt.Sprint(ap.BufferBitsPerEdge()),
			pct(ap.OverheadFraction()),
			f1(res.AvgLatency),
			f3(res.AcceptedFlits/rate),
			fmt.Sprintf("%.3g", wirePerFlit))
	}
	t.AddNote("offered load %.2f flit/node/cyc, uniform single-flit packets on the 4x4 mesh", rate)
	t.AddNote("dropped/deflected flits still burn wire energy, raising J per *delivered* flit — the §3.2 power cost")
	t.AddNote("elastic links (§3.3, ref [4]) buffer flits in the repeaters and close the flow-control loop at the wire, keeping 1-flit router buffers at full speed")
	return t, nil
}

// E12Bus compares the network against the shared-bus "degenerate network"
// of §1 under the same offered traffic.
func E12Bus(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Network vs shared bus (§1, §4)",
		PaperClaim: "networks are preferable to buses: higher bandwidth and multiple " +
			"concurrent communications",
		Columns: []string{"offered (pkt/node/cyc)", "bus accepted", "bus lat (cyc)", "net accepted", "net lat (cyc)"},
	}
	rates := []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.4}
	if quick {
		rates = []float64{0.02, 0.1, 0.4}
	}
	const clients = 16
	warm, meas := int64(1000), int64(4000)
	if quick {
		warm, meas = 500, 1500
	}
	for _, rate := range rates {
		// Bus: 256-bit single-beat transactions, same Bernoulli process.
		b, err := bus.New(bus.Config{Clients: clients, WidthBits: 256, ArbCycles: 1})
		if err != nil {
			return nil, err
		}
		delivered := int64(0)
		b.Deliver = func(txn *bus.Txn, now int64) {
			if now >= warm && now <= warm+meas {
				delivered++
			}
		}
		rng := rand.New(rand.NewSource(7))
		for cycle := int64(0); cycle < warm+meas; cycle++ {
			for src := 0; src < clients; src++ {
				if rng.Float64() < rate {
					dst := rng.Intn(clients - 1)
					if dst >= src {
						dst++
					}
					_ = b.Offer(src, dst, 256)
				}
			}
			b.Step()
		}
		busAccepted := float64(delivered) / float64(meas) / clients

		p := DefaultRunParams()
		p.Options = opt
		p.Rate = rate // single-flit packets: flits/node/cyc == pkts/node/cyc
		p.FlitsPerPacket = 1
		p.WarmupCycles, p.MeasureCycles = warm, meas
		res, err := Run(p)
		if err != nil {
			return nil, err
		}
		t.AddRow(f3(rate),
			f3(busAccepted), f1(b.Latency.Mean()),
			f3(res.AcceptedFlits), f1(res.AvgLatency))
	}
	t.AddNote("bus ceiling: one 256b transaction per 2 cycles shared by 16 clients = 0.031 pkt/node/cyc; the torus sustains an order of magnitude more")
	return t, nil
}
