package noc

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The golden determinism suite pins the simulation engine's observable
// output: experiment tables and sweep CSVs captured from the pre-
// optimization ("seed") engine. Any engine change — flit pooling, route
// caching, active-set skips, parallel sweep execution — must reproduce
// these bytes exactly for the same seeds, or it changed behaviour, not
// just speed. Regenerate deliberately with `go test -run Golden -update`.

var update = flag.Bool("update", false, "rewrite golden files from the current engine")

// goldenSweepRates are the offered loads of the golden sweep.
var goldenSweepRates = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// goldenSweepBase is the golden sweep's configuration for one seed.
func goldenSweepBase(seed int64) core.RunParams {
	base := core.DefaultRunParams()
	base.WarmupCycles = 500
	base.MeasureCycles = 1500
	base.FlitsPerPacket = 2
	base.Seed = seed
	return base
}

// goldenSweepHeader and writeGoldenSweepRow render sweep points in
// cmd/nocsweep's CSV format.
const goldenSweepHeader = "offered,accepted,avg_latency,p50,p99,max,util_mean,util_max\n"

func writeGoldenSweepRow(sb *strings.Builder, rate float64, r core.RunResult) {
	fmt.Fprintf(sb, "%.3f,%.4f,%.2f,%d,%d,%d,%.4f,%.4f\n",
		rate, r.AcceptedFlits, r.AvgLatency, r.P50Latency, r.P99Latency,
		r.MaxLatency, r.LinkUtilMean, r.LinkUtilMax)
}

// goldenSweepCSV renders a load-latency sweep in cmd/nocsweep's CSV
// format, run under opt.
func goldenSweepCSV(t *testing.T, seed int64, opt core.Options) string {
	t.Helper()
	base := goldenSweepBase(seed)
	base.Options = opt
	points, err := core.Sweep(base, goldenSweepRates)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(goldenSweepHeader)
	for _, pt := range points {
		writeGoldenSweepRow(&sb, pt.Rate, pt.Result)
	}
	return sb.String()
}

// checkGolden compares got against testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("%s: output diverged from the seed engine\n--- want ---\n%s\n--- got ---\n%s",
			name, want, got)
	}
}

// TestGoldenSweep pins the full load-latency sweep (the core.Sweep path the
// parallel runner fans out) for three seeds.
func TestGoldenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweeps are not -short")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkGolden(t, fmt.Sprintf("golden_sweep_seed%d.csv", seed), goldenSweepCSV(t, seed, core.Options{}))
		})
	}
}

// goldenTelemetryProbe runs a small seeded 4x4 torus at light load with
// full telemetry (sampling + lifecycle tracing) and returns the drained
// probe. Light load and a short horizon keep the Chrome trace golden
// small while still exercising every event kind except faults.
func goldenTelemetryProbe(t *testing.T) *telemetry.Probe {
	t.Helper()
	probe := telemetry.New(telemetry.Config{SampleEvery: 20, Trace: true})
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 5, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		g := traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.05, 2, flit.VCMask(0xFF), 1)
		g.StopAt = 80
		n.AttachClient(tile, g)
	}
	n.Run(80)
	if !n.Drain(10000) {
		t.Fatal("golden telemetry run did not drain")
	}
	return probe
}

// TestGoldenTelemetry pins the telemetry exporters byte-for-byte: the
// metrics CSV (counters, per-VC occupancy, link totals, time series) and
// the Chrome trace-event JSON for every packet in a small seeded run.
// These are the formats external tools parse, so format drift is a break.
func TestGoldenTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("golden telemetry runs are not -short")
	}
	probe := goldenTelemetryProbe(t)
	var csv, trace strings.Builder
	if err := probe.WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := probe.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_telemetry_metrics.csv", csv.String())
	checkGolden(t, "golden_telemetry_trace.json", trace.String())
}

// goldenExperiments lists the experiments whose quick-mode tables are
// pinned in testdata/golden_<id>_quick.txt and replayed by the sharded
// and resumed suites: the baseline network (E1), the
// mesh-vs-torus load sweep (E4), the chaos campaign (E20, whose fault
// detection cycles and reroute counts are extremely sensitive to any
// change in simulation order), the three tables that report simulated
// energy (E3, E5, E14), and the wire-fault table (E11, the only table
// whose runs draw the wire layer's per-link streams, so it pins that the
// wires' faults and streams shard and checkpoint with their links).
var goldenExperiments = []string{"E1", "E4", "E20", "E3", "E5", "E14", "E11"}

// TestGoldenExperiments pins the goldenExperiments quick-mode tables.
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("golden experiments are not -short")
	}
	for _, id := range goldenExperiments {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := core.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := e.Run(true, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("golden_%s_quick.txt", strings.ToLower(id)), tbl.Format())
		})
	}
}
