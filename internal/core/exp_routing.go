package core

import "fmt"

// E19Adaptive explores the routing axis of §3's research agenda: west-first
// turn-model adaptive routing against dimension-ordered source routing on
// the mesh, under the transpose permutation that concentrates DOR traffic.
func E19Adaptive(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:    "E19",
		Title: "Adaptive routing vs dimension order (§3 research agenda)",
		PaperClaim: "\"while these choices ... increase the wire utilization, much room " +
			"for improvement remains\" — routing is one axis; west-first turn-model " +
			"adaptivity is the classic deadlock-free improvement on a mesh",
		Columns: []string{"offered", "DOR lat (cyc)", "DOR accepted", "adaptive lat (cyc)", "adaptive accepted"},
	}
	rates := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	if quick {
		rates = []float64{0.1, 0.3, 0.5}
	}
	base := DefaultRunParams()
	base.Options = opt
	base.Topology = "mesh"
	base.K = 8
	base.Pattern = "transpose"
	base.FlitsPerPacket = 2
	if quick {
		base.WarmupCycles, base.MeasureCycles = 500, 1200
	}
	adaptiveBase := base
	adaptiveBase.Adaptive = true
	dor, err := Sweep(base, rates)
	if err != nil {
		return nil, err
	}
	ad, err := Sweep(adaptiveBase, rates)
	if err != nil {
		return nil, err
	}
	for i := range rates {
		d, a := dor[i].Result, ad[i].Result
		t.AddRow(f2(rates[i]), f1(d.AvgLatency), f3(d.AcceptedFlits),
			f1(a.AvgLatency), f3(a.AcceptedFlits))
	}
	satD, satA := SaturationRate(dor), SaturationRate(ad)
	t.AddNote("8x8 mesh, transpose permutation (adversarial for dimension order)")
	t.AddNote(fmt.Sprintf("saturation: DOR %.2f vs west-first adaptive %.2f flits/node/cycle (%.2fx)",
		satD, satA, satA/satD))
	t.AddNote("west-first can only adapt for source-destination pairs with no westward component, so the gain is partial — the turn model's price for deadlock freedom")
	return t, nil
}
