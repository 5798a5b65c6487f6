package core

import (
	"fmt"
	"math/rand"

	"repro/internal/area"
	"repro/internal/topology"
)

// E17Compaction reproduces §4.3's die-area discussion: fixed tiles waste
// area under a mixed client population; compacting rows recovers most of
// it at the cost of a non-uniform (design-specific) top-level layout.
func E17Compaction(quick bool, _ Options) (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "Fixed tiles vs compaction (§4.3)",
		PaperClaim: "fixing the size of a tile can potentially waste die area ... for a " +
			"high-volume part, die area can be reduced by compacting the tiles, moving " +
			"client modules so that all of the big (small) clients are in the same row",
		Columns: []string{"floorplan", "die (mm²)", "utilization", "vs fixed tiles"},
	}
	// A representative SoC mix: two processors, four DSPs, memories, and
	// small peripheral controllers — the client list of the paper's Fig. 1.
	rng := rand.New(rand.NewSource(71))
	clients := make([]area.Client, 16)
	for i := range clients {
		switch {
		case i < 2:
			clients[i] = area.Client{Name: "cpu", AreaMM: 8 + rng.Float64()}
		case i < 6:
			clients[i] = area.Client{Name: "dsp", AreaMM: 4 + rng.Float64()}
		case i < 9:
			clients[i] = area.Client{Name: "sram", AreaMM: 2.5 + rng.Float64()}
		default:
			clients[i] = area.Client{Name: "periph", AreaMM: 0.5 + rng.Float64()*0.8}
		}
	}
	const strip = 0.05 // per-edge router strip, §2.4
	fixed, err := area.FixedTiles(clients, 4, strip)
	if err != nil {
		return nil, err
	}
	compact, err := area.CompactedRows(clients, 4, strip)
	if err != nil {
		return nil, err
	}
	lower := area.SumArea(clients)
	t.AddRow(fixed.Name, f1(fixed.DieMM2), pct(fixed.Utilization), "1.00x")
	t.AddRow(compact.Name, f1(compact.DieMM2), pct(compact.Utilization),
		fmt.Sprintf("%.2fx", compact.DieMM2/fixed.DieMM2))
	t.AddRow(lower.Name+" (lower bound)", f1(lower.DieMM2), pct(lower.Utilization),
		fmt.Sprintf("%.2fx", lower.DieMM2/fixed.DieMM2))
	t.AddNote("§4.3: for low-volume parts design time dominates and the fixed-tile waste is acceptable; empty silicon does not hurt yield")
	return t, nil
}

// E18TopologyScaling answers §3.1's open question quantitatively across
// radices: how bisection, hops, wire demand, and the torus power overhead
// scale, holding the paper's energy model fixed.
func E18TopologyScaling(quick bool, _ Options) (*Table, error) {
	t := &Table{
		ID:    "E18",
		Title: "Topology choice across network sizes (§3.1)",
		PaperClaim: "there are many alternative topologies and the choice of a topology " +
			"depends on many factors ... if power dissipation is critical, a mesh topology " +
			"may be preferable to a torus",
		Columns: []string{"k", "topology", "avg hops", "wire demand (pitches)", "bisection", "torus power overhead"},
	}
	m := PaperPowerModel()
	ks := []int{4, 6, 8}
	if quick {
		ks = []int{4, 8}
	}
	for _, k := range ks {
		mesh, err := topology.NewMesh(k, k)
		if err != nil {
			return nil, err
		}
		torus, err := topology.NewFoldedTorus(k, k)
		if err != nil {
			return nil, err
		}
		ma, ta := topology.Analyze(mesh), topology.Analyze(torus)
		cmp, err := m.CompareExact(k)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(k), "mesh", f2(ma.AvgHops), f1(ma.WireDemand), fmt.Sprint(ma.BisectionChannels), "-")
		t.AddRow(fmt.Sprint(k), "folded torus", f2(ta.AvgHops), f1(ta.WireDemand),
			fmt.Sprint(ta.BisectionChannels), pct(cmp.TorusOverhead))
	}
	t.AddNote("the torus's power overhead grows with radix (the fold's average link length approaches the 2-pitch ideal) while its bisection advantage stays 2x — exactly the paper's point that 'if power dissipation is critical, a mesh topology may be preferable', and increasingly so on larger dies")
	return t, nil
}
