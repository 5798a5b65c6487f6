package sim

import (
	"reflect"
	"testing"
)

func TestPhaseOrderAndCount(t *testing.T) {
	k := NewKernel(1)
	var trace []string
	k.AddPhase("a", func(now Cycle) { trace = append(trace, "a") })
	k.AddPhase("b", func(now Cycle) { trace = append(trace, "b") })
	k.AddPhase("c", func(now Cycle) { trace = append(trace, "c") })
	k.Run(2)
	want := []string{"a", "b", "c", "a", "b", "c"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	if k.Now() != 2 {
		t.Fatalf("now = %d, want 2", k.Now())
	}
	if !reflect.DeepEqual(k.PhaseNames(), []string{"a", "b", "c"}) {
		t.Fatalf("phase names = %v", k.PhaseNames())
	}
}

func TestPhaseSeesCurrentCycle(t *testing.T) {
	k := NewKernel(1)
	var seen []Cycle
	k.AddPhase("obs", func(now Cycle) { seen = append(seen, now) })
	k.Run(3)
	if !reflect.DeepEqual(seen, []Cycle{0, 1, 2}) {
		t.Fatalf("cycles = %v", seen)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []int {
		k := NewKernel(seed)
		rng := NewStream(k.Seed(), TrafficStream)
		var draws []int
		k.AddPhase("draw", func(now Cycle) { draws = append(draws, rng.IntN(1000)) })
		k.Run(50)
		return draws
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different draws")
	}
	c := run(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical draws (suspicious)")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.AddPhase("inc", func(now Cycle) { count++ })
	ok := k.RunUntil(func() bool { return count >= 5 }, 100)
	if !ok {
		t.Fatal("condition not reached")
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5 (condition checked before each step)", count)
	}
	ok = k.RunUntil(func() bool { return count >= 1000 }, 10)
	if ok {
		t.Fatal("RunUntil reported success past budget")
	}
}

func TestNilPhasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil phase did not panic")
		}
	}()
	NewKernel(1).AddPhase("bad", nil)
}

func TestSeedAccessor(t *testing.T) {
	if got := NewKernel(99).Seed(); got != 99 {
		t.Fatalf("seed = %d", got)
	}
}
