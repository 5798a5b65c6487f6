package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/checkpoint"
)

// TestStreamMatchesPCG: a stream is the standard library's PCG. Its
// Float64 draws are math/rand/v2's over a PCG in the same state.
func TestStreamMatchesPCG(t *testing.T) {
	s := NewStream(42, TrafficStream+3)
	hi := splitmix64(42)
	r := rand.New(rand.NewPCG(hi, splitmix64(hi^uint64(TrafficStream+3))))
	for i := 0; i < 1000; i++ {
		if x, y := s.Float64(), r.Float64(); x != y {
			t.Fatalf("draw %d: Float64 %v, math/rand/v2 %v", i, x, y)
		}
	}
}

// TestStreamKeys: every (seed, id) key starts its own stream, and the
// same key always starts the same one.
func TestStreamKeys(t *testing.T) {
	first := func(seed int64, id StreamID) float64 { return NewStream(seed, id).Float64() }
	seen := map[float64]string{}
	for _, seed := range []int64{0, 1, 2, -1} {
		for _, id := range []StreamID{0, TrafficStream, TrafficStream + 1, ChaosStream, WireStream + 7, FaultStream} {
			v := first(seed, id)
			if v != first(seed, id) {
				t.Fatalf("(%d, %#x) drew %v, then %v", seed, id, v, first(seed, id))
			}
			key := fmt.Sprintf("(%d, %#x)", seed, id)
			if other, dup := seen[v]; dup {
				t.Fatalf("keys %q and %q start with the same draw %v", other, key, v)
			}
			seen[v] = key
		}
	}
}

// TestStreamRestoreReadsState: a stream saved after k draws and restored
// into a stream built from another seed continues the saved stream's
// draws, so a restore reads the saved state and replays nothing.
func TestStreamRestoreReadsState(t *testing.T) {
	s := NewStream(7, ChaosStream+2)
	for i := 0; i < 137; i++ {
		s.Float64()
	}
	b := checkpoint.NewBuilder(0, 0)
	s.SaveState(b.Section("s"))
	f, err := checkpoint.Parse(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Section("s")
	if err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 16 {
		t.Errorf("saved state is %d bytes, want 16", d.Remaining())
	}
	other := NewStream(99, WireStream)
	other.RestoreState(d)
	if err := d.Close(); err != nil {
		t.Fatalf("restore left bytes unread: %v", err)
	}
	for i := 0; i < 50; i++ {
		if got, want := other.Float64(), s.Float64(); got != want {
			t.Fatalf("draw %d after restore: %v, want %v", i, got, want)
		}
	}
}

// TestStreamDraws: IntN stays in range and reaches every value, Float64
// stays in [0, 1), ExpFloat64 has mean 1, and Read fills every byte.
func TestStreamDraws(t *testing.T) {
	s := NewStream(3, 0)
	hits := make([]int, 7)
	for i := 0; i < 7000; i++ {
		hits[s.IntN(7)]++
	}
	for v, h := range hits {
		if h < 800 || h > 1200 {
			t.Errorf("IntN(7) drew %d %d times in 7000, want about 1000", v, h)
		}
	}
	sum := 0.0
	for i := 0; i < 20000; i++ {
		if f := s.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v, outside [0, 1)", f)
		}
		sum += s.ExpFloat64()
	}
	if mean := sum / 20000; mean < 0.95 || mean > 1.05 {
		t.Errorf("ExpFloat64 mean %.3f, want about 1", mean)
	}
	buf := make([]byte, 13)
	for i := 0; i < 64; i++ {
		s.Read(buf)
		for j, b := range buf {
			if b != 0 {
				buf[j] = 0xFF
			}
		}
	}
	for j, b := range buf {
		if b != 0xFF {
			t.Errorf("Read left byte %d zero in 64 fills", j)
		}
	}
}

// TestKernelRestoreClock: the kernel's clock is all it restores.
func TestKernelRestoreClock(t *testing.T) {
	k := NewKernel(3)
	k.AddPhase("noop", func(Cycle) {})
	k.Run(25)
	k2 := NewKernel(3)
	k2.RestoreClock(k.Now())
	if k2.Now() != 25 || k2.Seed() != 3 {
		t.Fatalf("restored kernel at cycle %d with seed %d, want 25 and 3", k2.Now(), k2.Seed())
	}
}
