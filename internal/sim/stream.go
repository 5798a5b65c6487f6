package sim

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand/v2"

	"repro/internal/checkpoint"
)

// Stream is the random stream one consumer draws from: the standard
// library's PCG generator, keyed by (seed, StreamID). Every stochastic
// decision of a simulation goes through a Stream, each consumer owns its
// own, and a checkpoint saves a stream's two state words as they are, so
// restoring one costs the same at any cycle and the order in which
// consumers draw never matters.
type Stream struct{ pcg rand.PCG }

// StreamID names one consumer's stream within a run's seed: the kind of
// consumer in the high 32 bits plus its index (tile or link) in the low
// 32, so no two consumers of one run share a stream.
type StreamID uint64

// The kinds of consumer that draw random numbers.
const (
	TrafficStream   StreamID = (iota + 1) << 32 // a traffic generator, plus its tile
	ChaosStream                                 // a chaos client, plus its tile
	ProcessorStream                             // a memory-traffic processor
	WireStream                                  // a link's wire layer, plus the link's index
	FaultStream                                 // a fault campaign's schedule
)

// NewStream returns the stream (seed, id) names.
func NewStream(seed int64, id StreamID) *Stream {
	s := new(Stream)
	s.Seed(seed, id)
	return s
}

// Seed restarts s as the stream (seed, id) names. splitmix64 spreads the
// key over PCG's two state words, one-to-one, so distinct keys start at
// distinct states.
func (s *Stream) Seed(seed int64, id StreamID) {
	hi := splitmix64(uint64(seed))
	s.pcg.Seed(hi, splitmix64(hi^uint64(id)))
}

// splitmix64 is one step of Steele, Lea and Flood's SplitMix64 generator
// from state x: a bijection of 64-bit words.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Float64 returns a uniform value in [0, 1), as math/rand/v2 computes it.
func (s *Stream) Float64() float64 { return float64(s.pcg.Uint64()<<11>>11) / (1 << 53) }

// IntN returns a uniform value in [0, n); n must be positive. It is
// Lemire's multiply-and-reject, which almost always draws once.
func (s *Stream) IntN(n int) int {
	if n <= 0 {
		panic("sim: IntN bound is not positive")
	}
	hi, lo := bits.Mul64(s.pcg.Uint64(), uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			hi, lo = bits.Mul64(s.pcg.Uint64(), uint64(n))
		}
	}
	return int(hi)
}

// ExpFloat64 returns an exponentially distributed value with mean 1, by
// inverting the distribution function.
func (s *Stream) ExpFloat64() float64 { return -math.Log(1 - s.Float64()) }

// Read fills p with random bytes, eight to a draw.
func (s *Stream) Read(p []byte) {
	for ; len(p) >= 8; p = p[8:] {
		binary.LittleEndian.PutUint64(p, s.pcg.Uint64())
	}
	if len(p) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], s.pcg.Uint64())
		copy(p, tail[:])
	}
}

// SaveState writes the stream's two state words. PCG's binary form is
// "pcg:" and then the two words, big-endian.
func (s *Stream) SaveState(e *checkpoint.Encoder) {
	b, _ := s.pcg.MarshalBinary() // cannot fail
	e.U64(binary.BigEndian.Uint64(b[4:]))
	e.U64(binary.BigEndian.Uint64(b[12:]))
}

// RestoreState sets the stream to the state SaveState wrote; every pair
// of words is a valid state.
func (s *Stream) RestoreState(d *checkpoint.Decoder) {
	var b [20]byte
	copy(b[:], "pcg:")
	binary.BigEndian.PutUint64(b[4:], d.U64())
	binary.BigEndian.PutUint64(b[12:], d.U64())
	_ = s.pcg.UnmarshalBinary(b[:]) // cannot fail on this layout
}
