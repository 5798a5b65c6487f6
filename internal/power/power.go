// Package power implements the Section 3.1 energy model of the paper: the
// energy to move a flit through the network decomposes into a per-hop term
// (input and output controller traversal) and a per-wire-distance term
// (driving the inter-tile wires):
//
//	E_flit = H · E_hop + D · E_wire
//
// where H is the number of hops, D the physical wire distance travelled,
// and E_wire the per-mm wire energy of the signaling discipline in use.
//
// The paper instantiates the model for the k-ary 2-mesh and the folded
// torus under uniform traffic and concludes that although wire energy
// dominates hop energy in the 16-tile example, the torus's power overhead
// is "small, less than 15%," and is outweighed by its doubled bisection
// bandwidth. Comparison reproduces that argument with both the paper's
// closed-form hop/distance approximations and exact expectations computed
// from the topology.
//
// A simulation keeps no energy accumulator. The model is linear, so a
// run's energy follows from counts its components keep as integers:
// router traversals (the H term) and each link's active wire bits,
// weighted by the link's length when read (the D term, per bit driven).
// ActivityEnergy does that multiply.
package power

import (
	"fmt"

	"repro/internal/topology"
)

// Model carries the energy coefficients.
type Model struct {
	// EHopPerFlit is the controller traversal energy per flit per hop, J.
	EHopPerFlit float64
	// EWirePerBitMM is the wire energy per bit per mm, J (from the
	// signaling discipline).
	EWirePerBitMM float64
	// FlitBits is the number of wire bits toggled per flit when the whole
	// data field is used.
	FlitBits int
	// TilePitchMM converts topological distance (tile pitches) to mm.
	TilePitchMM float64
}

// DefaultModel returns coefficients for the paper's example network with
// the given wire energy (J/bit/mm). The hop energy is set so that wire
// transmission energy per hop is "significantly greater than per hop
// power" (§3.1) at the 3 mm tile pitch: one hop of wire (≥3 mm · 300 bits)
// costs several times the controller traversal.
func DefaultModel(eWirePerBitMM float64) Model {
	m := Model{
		EWirePerBitMM: eWirePerBitMM,
		FlitBits:      300,
		TilePitchMM:   3.0,
	}
	// Controller traversal: buffer write+read and switch traversal come to
	// roughly a fifth of one tile pitch of full-width wire energy.
	m.EHopPerFlit = 0.2 * m.wirePerFlitMM() * m.TilePitchMM
	return m
}

// wirePerFlitMM is the wire energy per flit per mm with all bits toggling.
func (m Model) wirePerFlitMM() float64 {
	return m.EWirePerBitMM * float64(m.FlitBits)
}

// FlitEnergy evaluates the §3.1 decomposition for a flit that crosses hops
// routers and travels distPitches tile pitches of wire.
func (m Model) FlitEnergy(hops float64, distPitches float64) float64 {
	return hops*m.EHopPerFlit + distPitches*m.TilePitchMM*m.wirePerFlitMM()
}

// ActivityEnergy converts a run's activity counts into joules: hops
// router traversals, and bitPitches active wire bits times the length in
// tile pitches of the link each crossed. Lanes beyond a flit's Size field
// stay quiet (§2.1), so bitPitches counts only the bits actually driven.
func (m Model) ActivityEnergy(hops int64, bitPitches float64) (hopJ, wireJ float64) {
	return float64(hops) * m.EHopPerFlit, m.EWirePerBitMM * bitPitches * m.TilePitchMM
}

// TopologyEnergy holds the per-flit energy of one topology under uniform
// traffic.
type TopologyEnergy struct {
	Name     string
	AvgHops  float64
	AvgDist  float64 // tile pitches
	HopJ     float64
	WireJ    float64
	TotalJ   float64
	WireFrac float64
}

func (m Model) topologyEnergy(name string, hops, dist float64) TopologyEnergy {
	hopJ := hops * m.EHopPerFlit
	wireJ := dist * m.TilePitchMM * m.wirePerFlitMM()
	return TopologyEnergy{
		Name: name, AvgHops: hops, AvgDist: dist,
		HopJ: hopJ, WireJ: wireJ, TotalJ: hopJ + wireJ,
		WireFrac: wireJ / (hopJ + wireJ),
	}
}

// Exact evaluates the model on a topology using exact uniform-traffic
// expectations (average dimension-ordered hop count and physical wire
// distance including the fold).
func (m Model) Exact(t topology.Topology) TopologyEnergy {
	a := topology.Analyze(t)
	return m.topologyEnergy(a.Topology, a.AvgHops, a.AvgDistance)
}

// PaperMesh evaluates the paper's closed-form mesh approximation for a
// k-ary 2-mesh: 2k/3 hops, each over one tile pitch of wire.
func (m Model) PaperMesh(k int) TopologyEnergy {
	hops := 2.0 * float64(k) / 3.0
	return m.topologyEnergy(fmt.Sprintf("paper-mesh-k%d", k), hops, hops)
}

// PaperTorus evaluates the paper's closed-form folded-torus approximation
// for a k-ary 2-cube: k/2 hops, each over wirePerHop tile pitches. The
// text's equations idealize wirePerHop = 2 ("twice the wire demand"); the
// actual 0,2,3,1 fold averages 1.5, which is what makes the <15% overhead
// claim come out (see EXPERIMENTS.md, E3).
func (m Model) PaperTorus(k int, wirePerHop float64) TopologyEnergy {
	hops := float64(k) / 2.0
	return m.topologyEnergy(fmt.Sprintf("paper-torus-k%d", k), hops, hops*wirePerHop)
}

// Comparison is the mesh-vs-torus §3.1 result.
type Comparison struct {
	Mesh, Torus   TopologyEnergy
	TorusOverhead float64 // (torus-mesh)/mesh
}

// CompareExact compares the exact per-flit energies of a mesh and a folded
// torus of equal radix.
func (m Model) CompareExact(k int) (Comparison, error) {
	mesh, err := topology.NewMesh(k, k)
	if err != nil {
		return Comparison{}, err
	}
	torus, err := topology.NewFoldedTorus(k, k)
	if err != nil {
		return Comparison{}, err
	}
	me, te := m.Exact(mesh), m.Exact(torus)
	return Comparison{Mesh: me, Torus: te, TorusOverhead: te.TotalJ/me.TotalJ - 1}, nil
}

// ComparePaper compares using the paper's closed forms.
func (m Model) ComparePaper(k int, torusWirePerHop float64) Comparison {
	me := m.PaperMesh(k)
	te := m.PaperTorus(k, torusWirePerHop)
	return Comparison{Mesh: me, Torus: te, TorusOverhead: te.TotalJ/me.TotalJ - 1}
}

// String renders the comparison.
func (c Comparison) String() string {
	return fmt.Sprintf("%s: %.3g J/flit vs %s: %.3g J/flit (torus overhead %+.1f%%)",
		c.Mesh.Name, c.Mesh.TotalJ, c.Torus.Name, c.Torus.TotalJ, 100*c.TorusOverhead)
}
