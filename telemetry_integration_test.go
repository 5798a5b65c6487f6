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

// telemetryNets are the networks the telemetry suites run: the paper's
// 16-tile baseline torus, the same torus congested with a priority class
// (buildCongestedNet), and a 4x4 deflection mesh, each under uniform load
// that stops at cycle 3000, with the given probe (nil for none).
var telemetryNets = []struct {
	name  string
	build func(t *testing.T, probe *telemetry.Probe) *network.Network
}{
	{"torus4x4", func(t *testing.T, probe *telemetry.Probe) *network.Network {
		return buildLoadedNet(t, 3000, func(cfg *network.Config) {
			cfg.Probe = probe
		})
	}},
	{"congested-torus4x4", func(t *testing.T, probe *telemetry.Probe) *network.Network {
		return buildCongestedNet(t, probe, congestedPriority)
	}},
	{"deflect-mesh4x4", func(t *testing.T, probe *telemetry.Probe) *network.Network {
		topo, err := topology.NewMesh(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		rc := router.DefaultConfig(0)
		rc.Mode = router.ModeDeflect
		n, err := network.New(network.Config{Topo: topo, Router: rc, Seed: 1, Probe: probe})
		if err != nil {
			t.Fatal(err)
		}
		for tile := 0; tile < topo.NumTiles(); tile++ {
			g := traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.3, 1, flit.VCMask(0xFF), 1)
			g.StopAt = 3000
			n.AttachClient(tile, g)
		}
		return n
	}},
}

// congestedPriority is the class-of-service VC pair of buildCongestedNet:
// VC 0 and, under the torus's dateline classes, its partner VC 4.
const congestedPriority = flit.VCMask(0x01)

// buildCongestedNet builds the paper's 4x4 folded torus at 0.6
// flits/tile/cycle of 2-flit uniform packets, stopping at cycle 3000:
// enough load that switch requests lose arbitration, wait on credits and
// find their staging slot taken. Every fourth tile sends on the prio VC
// pair, which the routers treat as a priority class; the others send on
// the remaining pairs.
func buildCongestedNet(t *testing.T, probe *telemetry.Probe, prio flit.VCMask) *network.Network {
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := router.DefaultConfig(0)
	rc.PriorityVCs = prio
	n, err := network.New(network.Config{Topo: topo, Router: rc, Seed: 1, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		mask := flit.VCMask(0xFF) &^ (congestedPriority | congestedPriority<<4)
		if tile%4 == 0 {
			mask = congestedPriority
		}
		g := traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.6, 2, mask, 1)
		g.StopAt = 3000
		n.AttachClient(tile, g)
	}
	return n
}

// TestStallTaxonomyUnderCongestion pins what switch arbitration counts
// on the congested torus: the die-wide switch moves and the probe's three
// stall classes, each of them nonzero. The same run with no priority
// class must count differently, so the priority narrowing of the switch
// grant decided at least one arbitration.
func TestStallTaxonomyUnderCongestion(t *testing.T) {
	run := func(prio flit.VCMask) telemetry.Totals {
		probe := telemetry.New(telemetry.Config{})
		n := buildCongestedNet(t, probe, prio)
		n.Run(3000)
		if !n.Drain(100000) {
			t.Fatalf("network did not drain (occupancy %d)", n.Occupancy())
		}
		return probe.Totals()
	}
	got := run(congestedPriority)
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"SwitchMoves", got.SwitchMoves, 91542},
		{"ArbLosses", got.ArbLosses, 5078},
		{"CreditStalls", got.CreditStalls, 890},
		{"StageStalls", got.StageStalls, 12652},
	} {
		if c.got != c.want || c.got <= 0 {
			t.Errorf("%s = %d, want %d (and above 0)", c.name, c.got, c.want)
		}
	}
	if flat := run(0); flat.SwitchMoves == got.SwitchMoves && flat.ArbLosses == got.ArbLosses &&
		flat.CreditStalls == got.CreditStalls && flat.StageStalls == got.StageStalls {
		t.Errorf("the run without a priority class counts the same %+v: the priority narrowing never decided a grant", flat)
	}
}

// TestTelemetryReconciliation pins the accounting contract of the probe
// layer on telemetryNets: the port-level delivery counters agree exactly
// with the measurement recorder, the routers eject what the ports
// deliver, and the heatmap's link totals are consistent with the traffic
// that produced them. Uniform traffic never picks its own tile, so no
// loopback packets (which bypass the network) can skew the comparison.
func TestTelemetryReconciliation(t *testing.T) {
	for _, tc := range telemetryNets {
		t.Run(tc.name, func(t *testing.T) {
			probe := telemetry.New(telemetry.Config{SampleEvery: 50})
			reconcileTelemetry(t, probe, tc.build(t, probe))
		})
	}
}

// TestEngineCountersWithoutProbe: routers, ports and links own their
// event counters, so a run of telemetryNets without a probe counts
// exactly what the same run with one counts, component by component.
func TestEngineCountersWithoutProbe(t *testing.T) {
	type counts struct {
		routers []router.Stats
		ports   []telemetry.PortCounts
		links   []telemetry.LinkCounts
	}
	run := func(t *testing.T, n *network.Network) counts {
		n.Run(3000)
		if !n.Drain(100000) {
			t.Fatalf("network did not drain (occupancy %d)", n.Occupancy())
		}
		var c counts
		for tile := 0; tile < n.Topology().NumTiles(); tile++ {
			c.routers = append(c.routers, n.Router(tile).Stats)
			c.ports = append(c.ports, n.Port(tile).PortCounts)
		}
		for _, l := range n.Links() {
			c.links = append(c.links, l.LinkCounts)
		}
		return c
	}
	for _, tc := range telemetryNets {
		t.Run(tc.name, func(t *testing.T) {
			with := run(t, tc.build(t, telemetry.New(telemetry.Config{SampleEvery: 50})))
			without := run(t, tc.build(t, nil))
			if with.routers[0].SwitchMoves == 0 || with.ports[0].DeliveredPackets == 0 || with.links[0].Flits == 0 {
				t.Fatal("tile 0 counted nothing; the comparison is vacuous")
			}
			for tile := range with.routers {
				if with.routers[tile] != without.routers[tile] {
					t.Errorf("router %d: with probe %+v, without %+v", tile, with.routers[tile], without.routers[tile])
				}
				if with.ports[tile] != without.ports[tile] {
					t.Errorf("port %d: with probe %+v, without %+v", tile, with.ports[tile], without.ports[tile])
				}
			}
			for i := range with.links {
				if with.links[i] != without.links[i] {
					t.Errorf("link %d: with probe %+v, without %+v", i, with.links[i], without.links[i])
				}
			}
		})
	}
}

// reconcileTelemetry runs n, whose clients stop at cycle 3000, to a drain
// and checks probe's counters against its recorder.
func reconcileTelemetry(t *testing.T, probe *telemetry.Probe, n *network.Network) {
	t.Helper()
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
	if got, want := probe.Totals().Ejected, probe.TotalDeliveredFlits(); got != want {
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
