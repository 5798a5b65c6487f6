package sampler

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/health"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// newSampledNet builds a 4x4 folded torus with a counters-only probe under
// uniform Bernoulli load (generators stop at stopAt; 0 never) and attaches
// a sampler.
func newSampledNet(t testing.TB, rate float64, stopAt, seed int64, cfg Config) (*network.Network, *Sampler) {
	t.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.New(network.Config{
		Topo: topo, Router: router.DefaultConfig(0), Seed: seed, Shards: 1,
		Probe: telemetry.New(telemetry.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		g := traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, rate, 2, flit.VCMask(0xFF), seed)
		g.StopAt = stopAt
		n.AttachClient(tile, g)
	}
	s, err := Attach(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, s
}

// TestHotLinksRanking pins the ranking every subscriber sees: per-window
// flit deltas, hottest first, ties broken by link index, idle links
// omitted, and at most maxHotLinks entries.
func TestHotLinksRanking(t *testing.T) {
	p := &telemetry.Probe{}
	counts := make([]telemetry.LinkCounts, 12)
	for i := range counts {
		p.Links = append(p.Links, &telemetry.LinkProbe{Index: i, From: i, To: i + 1, Dir: route.East, LinkCounts: &counts[i]})
	}
	s := &Sampler{}
	window := func(flits ...int64) []health.LinkLoad {
		for i, f := range flits {
			counts[i].Flits += f
		}
		return s.hotLinks(p)
	}
	indexes := func(loads []health.LinkLoad) []int {
		var out []int
		for _, l := range loads {
			out = append(out, l.Index)
		}
		return out
	}

	got := window(3, 0, 5, 3, 0, 1)
	if want := []int{2, 0, 3, 5}; !reflect.DeepEqual(indexes(got), want) {
		t.Fatalf("first window ranks %v, want %v (hottest first, ties by index, idle links omitted)", indexes(got), want)
	}
	if got[0].Flits != 5 || got[0].From != 2 || got[0].To != 3 || got[0].Dir != "E" {
		t.Fatalf("hottest entry %+v does not describe link 2's 5 flits", got[0])
	}

	// The next window ranks its own deltas, not the cumulative counts.
	got = window(1, 0, 0, 0, 0, 4)
	if want := []int{5, 0}; !reflect.DeepEqual(indexes(got), want) {
		t.Fatalf("second window ranks %v, want %v", indexes(got), want)
	}

	// Twelve busy links with equal deltas: capped, ties by index.
	got = window(7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7)
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(indexes(got), want) {
		t.Fatalf("capped window ranks %v, want %v", indexes(got), want)
	}
}

// TestWaitingSetUsesMinWaitAge: a sample's waiting set is the network's
// waiting VCs at health.MinWaitAge of the sampler's detector thresholds,
// read at the sample instant.
func TestWaitingSetUsesMinWaitAge(t *testing.T) {
	cfg := Config{Every: 64, Health: health.Config{StarveAge: 200}}
	n, s := newSampledNet(t, 0.3, 0, 6, cfg)
	minAge := health.MinWaitAge(cfg.Health)
	if minAge != 100 {
		t.Fatalf("MinWaitAge(StarveAge 200) = %d, want 100", minAge)
	}
	samples, nonEmpty := 0, 0
	s.Subscribe(func(smp *Sample) {
		samples++
		want := n.AppendWaitingVCs(smp.Cycle, minAge, nil)
		if len(want) != len(smp.Waiting) || (len(want) > 0 && !reflect.DeepEqual(want, smp.Waiting)) {
			t.Errorf("cycle %d: waiting set %+v, want %+v", smp.Cycle, smp.Waiting, want)
		}
		if len(smp.Waiting) > 0 {
			nonEmpty++
		}
	})
	n.Run(200)
	for _, d := range []route.Dir{route.North, route.East, route.South, route.West} {
		n.SetPortStall(5, d, true)
	}
	n.Run(1000)
	if samples == 0 || nonEmpty == 0 {
		t.Fatalf("%d samples, %d with waiting VCs; the check is vacuous", samples, nonEmpty)
	}
	if got := s.Monitor().Config().StarveAge; got != 200 {
		t.Fatalf("monitor StarveAge %d, want the configured 200", got)
	}
}

// TestSubscribersSeeOneSample: every subscriber gets the same sample, in
// subscription order, on the sampler's cadence, carrying the monitor's
// verdicts.
func TestSubscribersSeeOneSample(t *testing.T) {
	n, s := newSampledNet(t, 0.3, 0, 2, Config{Every: 64})
	var order []string
	var first *Sample
	s.Subscribe(func(smp *Sample) {
		order = append(order, "a")
		first = smp
	})
	s.Subscribe(func(smp *Sample) {
		order = append(order, "b")
		if smp != first {
			t.Error("subscribers saw different samples")
		}
		if smp.Cycle%64 != 0 {
			t.Errorf("sample at cycle %d is off the cadence", smp.Cycle)
		}
		if len(smp.Verdicts) != 3 || !smp.Healthy {
			t.Errorf("cycle %d: verdicts %+v healthy %v", smp.Cycle, smp.Verdicts, smp.Healthy)
		}
		if smp.LinkInFlight < 0 || smp.LinkInFlight > smp.BufOcc {
			t.Errorf("cycle %d: %d in flight of %d occupied", smp.Cycle, smp.LinkInFlight, smp.BufOcc)
		}
	})
	n.Run(256)
	if got := strings.Join(order, ""); got != "abababab" {
		t.Fatalf("subscriber calls %q, want four samples in subscription order", got)
	}
	if s.Every() != 64 {
		t.Fatalf("Every() = %d", s.Every())
	}
	if first.GeneratedPackets == 0 || first.EjectedFlits == 0 || len(first.HotLinks) == 0 {
		t.Fatalf("sample missing traffic: %+v", first.Sample)
	}
}

// TestSamplingAllocatesNothing: on a loaded, healthy network the sampling
// step — one observation, the monitor pass and the subscriber calls —
// allocates nothing. The step is bracketed by heap counter reads inside
// the kernel (a phase registered just before the sampler's, and the last
// subscriber) rather than by timing whole Run windows, because the cycle
// loop's own flit and packet pools still grow now and then at this load.
// Like testing.AllocsPerRun it runs on one P and reports the integer mean
// per sample: a stray object the runtime allocates during one bracket
// (restarting the world after a counter read can start a thread) does not
// fail it, and any allocation on every sample does.
func TestSamplingAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.New(network.Config{
		Topo: topo, Router: router.DefaultConfig(0), Seed: 1, Shards: 1,
		Probe: telemetry.New(telemetry.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.3, 2, flit.VCMask(0xFF), 1))
	}
	var before, after runtime.MemStats
	n.Kernel().AddPhase("before-sampler", func(now sim.Cycle) {
		if int64(now)%DefaultEvery == 0 {
			runtime.ReadMemStats(&before)
		}
	})
	s, err := Attach(n, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const warm, measured = 4, 32
	samples, hot := 0, 0
	var mallocs uint64
	s.Subscribe(func(smp *Sample) { hot += len(smp.HotLinks) })
	s.Subscribe(func(*Sample) {
		runtime.ReadMemStats(&after)
		if samples++; samples > warm {
			mallocs += after.Mallocs - before.Mallocs
		}
	})
	n.Run((warm + measured) * DefaultEvery)
	if samples != warm+measured || hot == 0 {
		t.Fatalf("%d samples naming %d hot links; the check is vacuous", samples, hot)
	}
	if perSample := mallocs / measured; perSample != 0 {
		t.Fatalf("steady-state samples allocate %d objects each (%d over %d), want 0", perSample, mallocs, measured)
	}
	if !s.Monitor().Healthy() {
		t.Fatalf("the load is not steady: %+v", s.Monitor().Verdicts())
	}
}

// TestHealthSurvivesResume: the health monitor's detector state rides in
// the sampler's checkpoint extra. With tile 5's inputs stalled from cycle
// 0 and a sample every 64 cycles, the straight run reads starvation from
// cycle 512; a run restored at cycle 1000 must read the same at cycle
// 1024, its first sample after the restore, not restart its detectors
// and take that sample as a new baseline.
func TestHealthSurvivesResume(t *testing.T) {
	build := func() (*network.Network, *Sampler) {
		n, s := newSampledNet(t, 0.3, 0, 4, Config{Every: 64})
		for _, d := range []route.Dir{route.North, route.East, route.South, route.West} {
			n.SetPortStall(5, d, true)
		}
		return n, s
	}
	starvation := func(s *Sampler) health.Verdict { return s.Monitor().Verdicts()[1] }

	n, s := build()
	n.Run(1000)
	img, err := n.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(25)
	straight := starvation(s)
	if straight.Healthy || straight.Since != 512 {
		t.Fatalf("straight run at cycle 1024: starvation %+v, want unhealthy since 512", straight)
	}

	fork, fs := build()
	if err := fork.Fork(img, 0); err != nil {
		t.Fatal(err)
	}
	fork.Run(25)
	if got := starvation(fs); got != straight {
		t.Fatalf("resumed run at cycle 1024: starvation %+v, want the straight run's %+v", got, straight)
	}
	if fs.Monitor().Healthy() || !reflect.DeepEqual(fs.Monitor().Verdicts(), s.Monitor().Verdicts()) {
		t.Fatalf("resumed verdicts %+v, want the straight run's %+v", fs.Monitor().Verdicts(), s.Monitor().Verdicts())
	}
}
