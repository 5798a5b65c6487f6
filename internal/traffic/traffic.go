// Package traffic provides the workload generators of the evaluation:
// classic synthetic patterns (uniform random, transpose, bit-complement,
// shuffle, tornado, nearest-neighbour, hotspot), open-loop Bernoulli
// injectors, constant-bit-rate stream sources for the pre-scheduled flows
// of §2.6, and trace replay.
//
// The paper's motivating workloads are synthesized: the "flow of video
// data from a camera input to an MPEG encoder" becomes a CBR StreamSource,
// and the "processor memory references, that cannot be predicted before
// run-time" become Bernoulli dynamic traffic (plus the request/reply
// memory client in internal/protocol).
package traffic

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/sim"
)

// Pattern maps a source tile to a destination tile, possibly randomly.
type Pattern interface {
	Name() string
	Pick(src int, rng *sim.Stream) int
}

// Uniform sends to a destination chosen uniformly among the other tiles.
type Uniform struct{ Tiles int }

// Name implements Pattern.
func (u Uniform) Name() string { return "uniform" }

// Pick implements Pattern.
func (u Uniform) Pick(src int, rng *sim.Stream) int {
	d := rng.IntN(u.Tiles - 1)
	if d >= src {
		d++
	}
	return d
}

// Transpose sends (x, y) -> (y, x); it loads one mesh diagonal heavily and
// is a classic adversary for dimension-ordered routing.
type Transpose struct{ K int }

// Name implements Pattern.
func (p Transpose) Name() string { return "transpose" }

// Pick implements Pattern.
func (p Transpose) Pick(src int, _ *sim.Stream) int {
	x, y := src%p.K, src/p.K
	return x*p.K + y
}

// BitComplement sends tile i to tile N-1-i.
type BitComplement struct{ Tiles int }

// Name implements Pattern.
func (p BitComplement) Name() string { return "bitcomp" }

// Pick implements Pattern.
func (p BitComplement) Pick(src int, _ *sim.Stream) int { return p.Tiles - 1 - src }

// Shuffle sends i to (2i mod N-1)-style perfect-shuffle partner (rotate the
// tile index left by one bit within log2(N) bits).
type Shuffle struct{ Tiles int }

// Name implements Pattern.
func (p Shuffle) Name() string { return "shuffle" }

// Pick implements Pattern.
func (p Shuffle) Pick(src int, _ *sim.Stream) int {
	bits := 0
	for (1 << bits) < p.Tiles {
		bits++
	}
	hi := (src >> (bits - 1)) & 1
	return ((src << 1) | hi) & (p.Tiles - 1)
}

// Tornado sends each tile nearly halfway around its row ring: the
// worst case for a torus's wraparound bandwidth.
type Tornado struct{ K int }

// Name implements Pattern.
func (p Tornado) Name() string { return "tornado" }

// Pick implements Pattern.
func (p Tornado) Pick(src int, _ *sim.Stream) int {
	x, y := src%p.K, src/p.K
	return y*p.K + (x+(p.K+1)/2-1)%p.K
}

// Neighbor sends to the next tile in the row (nearest-neighbour traffic,
// the friendliest locality case).
type Neighbor struct{ K int }

// Name implements Pattern.
func (p Neighbor) Name() string { return "neighbor" }

// Pick implements Pattern.
func (p Neighbor) Pick(src int, _ *sim.Stream) int {
	x, y := src%p.K, src/p.K
	return y*p.K + (x+1)%p.K
}

// Hotspot sends to a fixed hot tile with probability Frac, else defers to
// Base.
type Hotspot struct {
	Hot  int
	Frac float64
	Base Pattern
}

// Name implements Pattern.
func (p Hotspot) Name() string { return fmt.Sprintf("hotspot-%d", p.Hot) }

// Pick implements Pattern.
func (p Hotspot) Pick(src int, rng *sim.Stream) int {
	if rng.Float64() < p.Frac && p.Hot != src {
		return p.Hot
	}
	return p.Base.Pick(src, rng)
}

// ByName constructs a pattern for a kx×ky network from its name.
func ByName(name string, kx, ky int) (Pattern, error) {
	n := kx * ky
	switch name {
	case "uniform":
		return Uniform{Tiles: n}, nil
	case "transpose":
		if kx != ky {
			return nil, fmt.Errorf("traffic: transpose needs a square network")
		}
		return Transpose{K: kx}, nil
	case "bitcomp":
		return BitComplement{Tiles: n}, nil
	case "shuffle":
		if n&(n-1) != 0 {
			return nil, fmt.Errorf("traffic: shuffle needs a power-of-two tile count")
		}
		return Shuffle{Tiles: n}, nil
	case "tornado":
		return Tornado{K: kx}, nil
	case "neighbor":
		return Neighbor{K: kx}, nil
	case "hotspot":
		// Half the traffic hammers the central tile, the rest is uniform:
		// the canonical way to drive one destination into saturation while
		// the other flows stay near zero-load.
		return Hotspot{Hot: (ky/2)*kx + kx/2, Frac: 0.5, Base: Uniform{Tiles: n}}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}

// Generator is an open-loop Bernoulli packet source: each cycle it starts a
// new packet with probability Rate/FlitsPerPacket, so the offered load is
// Rate flits per cycle per node. Packets queue at the port if the network
// is congested (the queue is part of measured latency).
type Generator struct {
	Tile           int
	Pattern        Pattern
	Rate           float64 // offered flits/cycle/node
	FlitsPerPacket int
	Mask           flit.VCMask
	Class          int
	StopAt         int64 // stop generating at this cycle (0 = never)
	rng            sim.Stream

	// payloadBuf is the reusable injection payload: Port.Send copies the
	// bytes into the packet's flits, so one scratch buffer serves every
	// packet this generator offers.
	payloadBuf []byte

	GeneratedPackets int64
}

// NewGenerator returns a generator drawing the tile's traffic stream of
// seed.
func NewGenerator(tile int, p Pattern, rate float64, flitsPerPacket int, mask flit.VCMask, seed int64) *Generator {
	if flitsPerPacket < 1 {
		flitsPerPacket = 1
	}
	g := &Generator{
		Tile: tile, Pattern: p, Rate: rate, FlitsPerPacket: flitsPerPacket,
		Mask: mask,
	}
	g.Reseed(seed)
	return g
}

// Reseed restarts the generator on the tile's traffic stream of seed —
// the stream NewGenerator draws — and zeroes the packet count.
// Warm-forked replicas call it after restoring a shared warmup snapshot,
// so each replica's measurement traffic is an independent drawing while
// the network state at the fork is identical.
func (g *Generator) Reseed(seed int64) {
	g.rng.Seed(seed, sim.TrafficStream+sim.StreamID(g.Tile))
	g.GeneratedPackets = 0
}

// Tick implements network.Client.
func (g *Generator) Tick(now int64, p *network.Port) {
	p.Deliveries()
	if g.StopAt > 0 && now >= g.StopAt {
		return
	}
	prob := g.Rate / float64(g.FlitsPerPacket)
	if g.rng.Float64() >= prob {
		return
	}
	dst := g.Pattern.Pick(g.Tile, &g.rng)
	if dst == g.Tile {
		return
	}
	if n := g.payloadBytes(); cap(g.payloadBuf) < n {
		g.payloadBuf = make([]byte, n)
	}
	payload := g.payloadBuf[:g.payloadBytes()]
	if _, err := p.Send(dst, payload, g.Mask, g.Class); err == nil {
		g.GeneratedPackets++
	}
}

func (g *Generator) payloadBytes() int {
	// L flits carry (L-1)*32 + 1..32 bytes; use the full width.
	return g.FlitsPerPacket * flit.DataBytes
}

// StreamSource injects one small packet every Period cycles from Tile to
// Dst — the §2.6 static flow (e.g. camera to MPEG encoder). When Reserved
// is set the packets ride the reserved VC over the slots booked with
// Network.ReserveFlow (the caller must have reserved flow Flow with phase
// Phase); otherwise they travel as ordinary dynamic traffic of class
// Class.
type StreamSource struct {
	Tile, Dst int
	Period    int64
	Phase     int64
	Flow      int
	Reserved  bool
	Mask      flit.VCMask
	Class     int
	StopAt    int64
	Payload   int // bytes per packet (default 8)

	payloadBuf []byte

	Sent int64
}

// Tick implements network.Client.
func (s *StreamSource) Tick(now int64, p *network.Port) {
	p.Deliveries()
	if s.StopAt > 0 && now >= s.StopAt {
		return
	}
	if (now-s.Phase)%s.Period != 0 || now < s.Phase {
		return
	}
	nbytes := s.Payload
	if nbytes <= 0 {
		nbytes = 8
	}
	if cap(s.payloadBuf) < nbytes {
		s.payloadBuf = make([]byte, nbytes)
	}
	payload := s.payloadBuf[:nbytes]
	payload[0] = byte(now)
	var err error
	if s.Reserved {
		_, err = p.SendReserved(s.Dst, payload, s.Flow)
	} else {
		_, err = p.Send(s.Dst, payload, s.Mask, s.Class)
	}
	if err == nil {
		s.Sent++
	}
}

// Event is one packet of a replayed trace.
type Event struct {
	Cycle    int64
	Src, Dst int
	Bytes    int
	Class    int
}

// TraceSource replays the events whose Src matches its tile, in cycle
// order. Events must be sorted by cycle.
type TraceSource struct {
	Tile   int
	Events []Event
	Mask   flit.VCMask
	next   int

	// payload is the all-zero send buffer, grown to the largest event so
	// far; Port.Send copies it.
	payload []byte

	Sent int64
}

// Tick implements network.Client.
func (t *TraceSource) Tick(now int64, p *network.Port) {
	p.Deliveries()
	for t.next < len(t.Events) && t.Events[t.next].Cycle <= now {
		e := t.Events[t.next]
		t.next++
		if e.Src != t.Tile || e.Dst == t.Tile {
			continue
		}
		if cap(t.payload) < e.Bytes {
			t.payload = make([]byte, e.Bytes)
		}
		if _, err := p.Send(e.Dst, t.payload[:e.Bytes], t.Mask, e.Class); err == nil {
			t.Sent++
		}
	}
}
