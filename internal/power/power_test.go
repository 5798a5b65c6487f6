package power

import (
	"math"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/flit"
	"repro/internal/topology"
)

func paperModel() Model {
	return DefaultModel(circuits.LowSwing(circuits.Process100nm()).EnergyPerBitMM)
}

func TestWireDominatesHop(t *testing.T) {
	// §3.1: "wire transmission power is significantly greater than per hop
	// power for our 16 tile network."
	m := paperModel()
	c, err := m.CompareExact(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []TopologyEnergy{c.Mesh, c.Torus} {
		if e.WireFrac < 0.6 {
			t.Errorf("%s wire fraction = %v, want wire-dominated", e.Name, e.WireFrac)
		}
	}
}

func TestTorusOverheadBelow15Percent(t *testing.T) {
	// §3.1: "the power overhead of the torus is small, less than 15%".
	m := paperModel()
	c, err := m.CompareExact(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.TorusOverhead <= 0 {
		t.Fatalf("torus overhead = %v, expected positive (torus costs more)", c.TorusOverhead)
	}
	if c.TorusOverhead >= 0.15 {
		t.Fatalf("torus overhead = %.1f%%, paper says < 15%%", 100*c.TorusOverhead)
	}
}

func TestMeshWinsWhenWireDominates(t *testing.T) {
	// §3.1: "if wire transmission power dominates per hop power, the mesh
	// is more power efficient."
	m := paperModel()
	m.EHopPerFlit = 0 // wire power strictly dominates
	c, _ := m.CompareExact(4)
	if c.Torus.TotalJ <= c.Mesh.TotalJ {
		t.Fatal("with zero hop power, torus should cost more than mesh")
	}
	// Conversely, if hop power dominates, the torus (fewer hops) wins.
	m2 := paperModel()
	m2.EHopPerFlit = 100 * m2.wirePerFlitMM() * m2.TilePitchMM
	c2, _ := m2.CompareExact(4)
	if c2.Torus.TotalJ >= c2.Mesh.TotalJ {
		t.Fatal("with hop power dominant, torus should cost less than mesh")
	}
}

func TestPaperClosedForms(t *testing.T) {
	m := paperModel()
	mesh := m.PaperMesh(4)
	if math.Abs(mesh.AvgHops-8.0/3.0) > 1e-12 {
		t.Errorf("paper mesh hops = %v, want 8/3", mesh.AvgHops)
	}
	torus := m.PaperTorus(4, 2)
	if math.Abs(torus.AvgHops-2.0) > 1e-12 {
		t.Errorf("paper torus hops = %v, want 2", torus.AvgHops)
	}
	if math.Abs(torus.AvgDist-4.0) > 1e-12 {
		t.Errorf("paper torus dist = %v, want 4", torus.AvgDist)
	}
	// The idealized 2-pitch hop makes the torus look worse than the real
	// fold does; the exact fold average (1.5) lands under 15%.
	ideal := m.ComparePaper(4, 2)
	fold := m.ComparePaper(4, 1.5)
	if !(fold.TorusOverhead < 0.15 && ideal.TorusOverhead > fold.TorusOverhead) {
		t.Fatalf("overhead ideal=%v fold=%v", ideal.TorusOverhead, fold.TorusOverhead)
	}
}

func TestExactMatchesAnalysis(t *testing.T) {
	m := paperModel()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := m.Exact(topo)
	a := topology.Analyze(topo)
	if e.AvgHops != a.AvgHops || e.AvgDist != a.AvgDistance {
		t.Fatalf("exact energy used hops=%v dist=%v, analysis says %v/%v",
			e.AvgHops, e.AvgDist, a.AvgHops, a.AvgDistance)
	}
	want := m.FlitEnergy(a.AvgHops, a.AvgDistance)
	if math.Abs(e.TotalJ-want) > 1e-18 {
		t.Fatalf("TotalJ = %v, want %v", e.TotalJ, want)
	}
}

func TestFlitEnergyBitsGating(t *testing.T) {
	// The Size field keeps unused lanes quiet: a 16-bit flit must burn far
	// less wire energy than a 256-bit one over the same path.
	m := paperModel()
	_, wireFull := m.ActivityEnergy(2, 300*3)
	_, wireSmall := m.ActivityEnergy(2, 16*3)
	if r := wireFull / wireSmall; math.Abs(r-300.0/16.0) > 1e-9 {
		t.Fatalf("wire energy ratio = %v, want %v", r, 300.0/16.0)
	}
}

// TestActivityEnergyMatchesFlitEnergy: one full-width flit crossing 2
// routers and 3 tile pitches of wire costs what the analytic model says.
func TestActivityEnergyMatchesFlitEnergy(t *testing.T) {
	m := paperModel()
	hopJ, wireJ := m.ActivityEnergy(2, float64(m.FlitBits)*3)
	if want := m.FlitEnergy(2, 3); math.Abs(hopJ+wireJ-want) > 1e-18 {
		t.Fatalf("activity energy = %v, analytic = %v", hopJ+wireJ, want)
	}
}

// TestFlitFitsModelWidth: the widest flit drives every data lane plus the
// control overhead, and that must fit the model's flit width, or counting
// a link's active bits would charge more than a full-width flit.
func TestFlitFitsModelWidth(t *testing.T) {
	if bits, width := flit.DataBits+flit.OverheadBits, paperModel().FlitBits; bits > width {
		t.Fatalf("a full flit drives %d bits, the model's flit is %d wide", bits, width)
	}
}

func TestComparisonString(t *testing.T) {
	c, _ := paperModel().CompareExact(4)
	if !strings.Contains(c.String(), "torus overhead") {
		t.Fatalf("string: %s", c.String())
	}
}
