package noc

import (
	"strings"
	"testing"

	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestTelemetryReconciliation pins the accounting contract of the probe
// layer on the paper's 16-tile baseline: the port-level delivery counters
// agree exactly with the measurement recorder, and the heatmap's link
// totals are consistent with the traffic that produced them. Uniform
// traffic never picks its own tile, so no loopback packets (which bypass
// the network) can skew the comparison.
func TestTelemetryReconciliation(t *testing.T) {
	probe := telemetry.New(telemetry.Config{SampleEvery: 50})
	n := buildLoadedNet(t, 3000, func(cfg *network.Config) {
		cfg.Probe = probe
	})
	n.Run(3000)
	if !n.Drain(100000) {
		t.Fatalf("network did not drain (occupancy %d)", n.Occupancy())
	}

	rec := n.Recorder()
	if rec.DeliveredFlits == 0 {
		t.Fatal("no traffic delivered; reconciliation is vacuous")
	}
	if got, want := probe.TotalDeliveredFlits(), rec.DeliveredFlits; got != want {
		t.Errorf("probe delivered flits = %d, recorder = %d", got, want)
	}
	var pkts int64
	for _, rp := range probe.Routers {
		pkts += rp.DeliveredPackets
	}
	if pkts != rec.DeliveredPackets {
		t.Errorf("probe delivered packets = %d, recorder = %d", pkts, rec.DeliveredPackets)
	}
	// Fault-free run: everything ejected at a tile port belongs to a
	// reassembled packet (no abort tails).
	if got, want := probe.TotalEjectedFlits(), probe.TotalDeliveredFlits(); got != want {
		t.Errorf("ejected flits = %d, delivered flits = %d", got, want)
	}
	// Every delivered flit crossed at least one link (no loopbacks), and
	// every link flit was injected exactly once upstream.
	if probe.TotalLinkFlits() < rec.DeliveredFlits {
		t.Errorf("link flits %d < delivered flits %d", probe.TotalLinkFlits(), rec.DeliveredFlits)
	}
	var injected int64
	for _, rp := range probe.Routers {
		injected += rp.InjectedFlits
	}
	if injected != rec.DeliveredFlits {
		t.Errorf("injected flits = %d, delivered flits = %d (drained run must balance)", injected, rec.DeliveredFlits)
	}

	// The heatmap covers the full 4x4 die and its utilizations are duty
	// factors computed from the same link counters.
	hm := probe.Heatmap()
	lines := strings.Split(strings.TrimRight(hm, "\n"), "\n")
	if len(lines) != 5 { // header + 4 rows
		t.Fatalf("heatmap has %d lines, want 5:\n%s", len(lines), hm)
	}
	for _, lp := range probe.Links {
		if u := lp.Util(probe.Elapsed()); u < 0 || u > 1 {
			t.Errorf("link %d utilization %v outside [0,1]", lp.Index, u)
		}
	}
	if probe.Elapsed() != int64(n.Kernel().Now()) {
		t.Errorf("probe horizon %d != kernel now %d", probe.Elapsed(), n.Kernel().Now())
	}
	if len(probe.Series) == 0 {
		t.Error("SampleEvery was set but no series rows were collected")
	}
}

// TestKernelDrivenProbeReportsHorizon: a probed network driven through its
// kernel, as the post-mortem replayer and the wire-fault experiments drive
// theirs, reports the kernel clock as its horizon, with no Run or Drain to
// stamp it: the metrics table counts the cycles run and the CSV's link
// duty factors are not zero.
func TestKernelDrivenProbeReportsHorizon(t *testing.T) {
	probe := telemetry.New(telemetry.Config{})
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 3, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		n.AttachClient(tile, traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.2, 1, flit.VCMask(0xFF), 3))
	}
	n.Kernel().Run(400)
	if got := probe.Elapsed(); got != 400 {
		t.Errorf("probe horizon %d after 400 kernel cycles", got)
	}
	if table := probe.MetricsTable(); !strings.HasPrefix(table, "telemetry over 400 cycles") {
		t.Errorf("metrics table does not count the kernel's cycles:\n%s", table)
	}
	var csv strings.Builder
	if err := probe.WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	_, links, _ := strings.Cut(csv.String(), "# links\n")
	links, _, _ = strings.Cut(links, "\n#")
	rows := strings.Split(links, "\n")[1:] // after the column header
	busy := 0
	for _, row := range rows {
		f := strings.Split(row, ",")
		if len(f) != 9 {
			t.Fatalf("link row %q has %d fields, want 9", row, len(f))
		}
		if f[7] != "0.0000" {
			busy++
		}
	}
	if len(rows) != 64 || busy == 0 {
		t.Errorf("%d of %d link rows report a non-zero duty factor:\n%s", busy, len(rows), links)
	}
}

// TestCycleLoopAllocFreeWithCounters extends the allocation gate to the
// counters-only probe: enabled telemetry counters are plain integer adds
// and must not reintroduce steady-state allocation. (Lifecycle tracing
// appends to the event log and is exempt by design.)
func TestCycleLoopAllocFreeWithCounters(t *testing.T) {
	probe := telemetry.New(telemetry.Config{})
	n := buildLoadedNet(t, 0, func(cfg *network.Config) {
		cfg.Probe = probe
	})
	n.Run(2000)
	const cyclesPerRun = 200
	allocs := testing.AllocsPerRun(5, func() {
		n.Run(cyclesPerRun)
	})
	if perCycle := allocs / cyclesPerRun; perCycle > 1 {
		t.Fatalf("counters-only cycle loop allocates %.2f objects/cycle, want ~0", perCycle)
	}
	if probe.TotalLinkFlits() == 0 {
		t.Fatal("probe counted nothing; the alloc check is vacuous")
	}
}
