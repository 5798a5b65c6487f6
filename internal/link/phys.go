package link

import (
	"fmt"

	"repro/internal/sim"
)

// Phys models the physical wires of one link: DataWires logical bit lanes
// plus SpareWires spares. It supports the fault-tolerance story of §2.5:
//
//   - a hard fault kills one wire (stuck-at-zero);
//   - after test, bit steering is programmed ("laser fuses are blown or
//     registers are set at boot time"): all lanes at or above the faulty
//     wire shift up one position onto the spare, and mirror logic at the
//     far end restores the original bit positions;
//   - independently, transient faults flip a random in-flight bit with a
//     configurable per-flit probability, to exercise link-level ECC and
//     end-to-end retry.
type Phys struct {
	DataWires  int
	SpareWires int

	deadWires []int // physical wire indices, stuck at zero
	steerAt   int   // -1: steering off; else lanes >= steerAt shift up one wire
	laneMap   []int // multi-spare steering: lane -> wire; nil when unused

	// TransientProb is the per-traversal probability that one random data
	// bit flips in flight.
	TransientProb float64

	// ECC enables link-level SECDED protection of the payload.
	ECC bool

	rng *sim.Stream

	// Stats.
	Traversals     int64
	BitErrors      int64 // corrupted payload bits delivered (after ECC, if any)
	CorrectedFlits int64 // flits fixed by link ECC
	DetectedFlits  int64 // flits with detected-but-uncorrectable ECC errors
}

// NewPhys returns a physical link layer with the given logical width and
// spare count.
func NewPhys(dataWires, spareWires int, rng *sim.Stream) *Phys {
	return &Phys{DataWires: dataWires, SpareWires: spareWires, steerAt: -1, rng: rng}
}

// InjectHardFault marks physical wire w as stuck-at-zero. It returns an
// error if the index is outside the physical wire range.
func (p *Phys) InjectHardFault(w int) error {
	if w < 0 || w >= p.DataWires+p.SpareWires {
		return fmt.Errorf("link: wire %d outside [0,%d)", w, p.DataWires+p.SpareWires)
	}
	for _, d := range p.deadWires {
		if d == w {
			return nil
		}
	}
	p.deadWires = append(p.deadWires, w)
	return nil
}

// ProgramSteering configures the bit-steering logic around the hard
// faults, as the post-test fuse blow does. With one fault and one spare it
// is the single shift stage of §2.5; with more faults it applies the
// footnote's generalization — "multiple spare bits can be provided using
// the same method" — shifting each lane past every dead wire below it. It
// fails if there are more faults than spares.
func (p *Phys) ProgramSteering() error {
	if len(p.deadWires) == 0 {
		return fmt.Errorf("link: no hard fault to steer around")
	}
	if len(p.deadWires) > p.SpareWires {
		return fmt.Errorf("link: %d faults exceed %d spare wires", len(p.deadWires), p.SpareWires)
	}
	if len(p.deadWires) == 1 {
		p.steerAt = p.deadWires[0]
		p.laneMap = nil
		return nil
	}
	// Multi-spare: lane i rides the (i+1)-th live wire.
	p.laneMap = make([]int, p.DataWires)
	wire := 0
	for lane := 0; lane < p.DataWires; lane++ {
		for p.wireDead(wire) {
			wire++
		}
		if wire >= p.DataWires+p.SpareWires {
			return fmt.Errorf("link: not enough live wires for %d lanes", p.DataWires)
		}
		p.laneMap[lane] = wire
		wire++
	}
	p.steerAt = -1
	return nil
}

// SteeringProgrammed reports whether steering is active.
func (p *Phys) SteeringProgrammed() bool { return p.steerAt >= 0 || p.laneMap != nil }

// laneWire maps a logical bit lane to the physical wire carrying it.
func (p *Phys) laneWire(lane int) int {
	if p.laneMap != nil {
		return p.laneMap[lane]
	}
	if p.steerAt >= 0 && lane >= p.steerAt {
		return lane + 1
	}
	return lane
}

func (p *Phys) wireDead(w int) bool {
	for _, d := range p.deadWires {
		if d == w {
			return true
		}
	}
	return false
}

// Traverse sends bits payload bits (LSB-first in data) across the link and
// returns the received payload. It applies hard faults (as stuck-at-zero on
// whichever logical lane maps to a dead wire), optional ECC, and transient
// single-bit flips. The input slice is not modified.
func (p *Phys) Traverse(data []byte, bits int) []byte {
	p.Traversals++
	if bits > p.DataWires {
		bits = p.DataWires
	}
	if p.ECC {
		return p.traverseECC(data, bits)
	}
	out := make([]byte, (bits+7)/8)
	flip := -1
	// A zero-bit payload has no data wire to flip; the draw still happens,
	// so the stream advances as for any other flit.
	if p.TransientProb > 0 && p.rng != nil && p.rng.Float64() < p.TransientProb && bits > 0 {
		flip = p.rng.IntN(bits)
	}
	for lane := 0; lane < bits; lane++ {
		v := getBit(data, lane)
		if p.wireDead(p.laneWire(lane)) {
			v = false // stuck at zero
		}
		if lane == flip {
			v = !v
		}
		if v != getBit(data, lane) {
			p.BitErrors++
		}
		if v {
			out[lane/8] |= 1 << (lane % 8)
		}
	}
	return out
}

// traverseECC transports the payload inside a SECDED codeword. Parity bits
// travel on additional wires; a transient flip may land on any codeword
// bit. Hard faults are applied to data lanes exactly as without ECC.
func (p *Phys) traverseECC(data []byte, bits int) []byte {
	w := ECCEncode(data, bits)
	// Hard faults on data lanes corrupt the corresponding codeword bits.
	di := 0
	for pos := 1; pos < w.Len(); pos++ {
		if isPow2(pos) {
			continue
		}
		if di < bits && p.wireDead(p.laneWire(di)) && w.bits[pos] {
			w.bits[pos] = false
		}
		di++
	}
	if p.TransientProb > 0 && p.rng != nil && p.rng.Float64() < p.TransientProb {
		w.Flip(p.rng.IntN(w.Len()))
	}
	out, res := w.Decode()
	switch res {
	case ECCCorrected:
		p.CorrectedFlits++
	case ECCDetected:
		p.DetectedFlits++
	}
	// Count residual errors against ground truth.
	for lane := 0; lane < bits; lane++ {
		if getBit(out, lane) != getBit(data, lane) {
			p.BitErrors++
		}
	}
	return out[:(bits+7)/8]
}
