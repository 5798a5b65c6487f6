package noc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/telemetry/sampler"
	"repro/internal/telemetry/serve"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The cross-shard determinism suite proves the tentpole contract of the
// sharded cycle loop: for any shard count, every observable output —
// golden sweep CSVs, experiment tables, telemetry exports, recorder
// state — is byte-identical to the sequential engine. It runs under
// `go test -race ./...` (and hence `make ci`), so the lockstep worker
// pool is exercised with the race detector watching.

// shardCounts returns the shard counts the suite exercises: the sharded
// basics plus whatever GOMAXPROCS resolves to on this machine.
func shardCounts() []int {
	counts := []int{2, 3}
	if p := runtime.GOMAXPROCS(0); p > 1 && p != 2 && p != 3 {
		counts = append(counts, p)
	}
	return counts
}

// readGolden loads a committed golden file (written by the sequential
// engine).
func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	return string(b)
}

// TestShardedGoldenSweep reruns the golden load-latency sweeps with the
// network sharded and requires the committed sequential bytes.
func TestShardedGoldenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded golden sweeps are not -short")
	}
	for _, shards := range shardCounts() {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 3} {
				want := readGolden(t, fmt.Sprintf("golden_sweep_seed%d.csv", seed))
				if got := goldenSweepCSV(t, seed, core.Options{Shards: shards}); got != want {
					t.Errorf("seed %d: sharded sweep diverged from sequential golden\n--- want ---\n%s--- got ---\n%s",
						seed, want, got)
				}
			}
		})
	}
}

// TestShardedGoldenExperiments reruns the pinned goldenExperiments quick
// tables with sharding on. The experiments run in parallel, each at its
// own shard counts: the options are per call.
func TestShardedGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded golden experiments are not -short")
	}
	for _, id := range goldenExperiments {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			want := readGolden(t, fmt.Sprintf("golden_%s_quick.txt", strings.ToLower(id)))
			e, err := core.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range shardCounts() {
				tbl, err := e.Run(true, core.Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				if got := tbl.Format(); got != want {
					t.Errorf("shards=%d: %s table diverged from sequential golden\n--- want ---\n%s--- got ---\n%s",
						shards, id, want, got)
				}
			}
		})
	}
}

// TestShardedTelemetryCSV compares the exports of a traced run at every
// shard count against the sequential run: the metrics CSV (counters,
// per-VC occupancy, link totals, sampled series), the Chrome trace, and
// the Snapshot bytes taken mid-run, whose probe section holds the
// tracer's log. Each shard stages its own lifecycle events and one merge
// per cycle orders them, so none of the three may depend on the shard
// count. The capped run hits MaxTraceEvents inside a cycle, so which of
// that cycle's events it keeps is decided by the merged order too.
func TestShardedTelemetryCSV(t *testing.T) {
	type exports struct {
		csv, trace string
		snap       []byte
		events     []telemetry.Event
	}
	run := func(shards, maxEvents int) exports {
		probe := telemetry.New(telemetry.Config{SampleEvery: 20, Trace: true, MaxTraceEvents: maxEvents})
		topo, err := topology.NewFoldedTorus(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		n, err := network.New(network.Config{
			Topo: topo, Router: router.DefaultConfig(0), Seed: 5, Probe: probe, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := n.Shards(); got != shards {
			t.Fatalf("traced network runs %d shards, want %d", got, shards)
		}
		for tile := 0; tile < topo.NumTiles(); tile++ {
			g := traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.2, 2, flit.VCMask(0xFF), 1)
			g.StopAt = 400
			n.AttachClient(tile, g)
		}
		n.Run(200)
		var ex exports
		if ex.snap, err = n.Snapshot(0); err != nil {
			t.Fatal(err)
		}
		n.Run(200)
		if !n.Drain(10000) {
			t.Fatalf("shards=%d: did not drain", shards)
		}
		var csv, trace strings.Builder
		if err := probe.WriteMetricsCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := probe.WriteChromeTrace(&trace); err != nil {
			t.Fatal(err)
		}
		ex.csv, ex.trace, ex.events = csv.String(), trace.String(), probe.Tracer().Events()
		return ex
	}
	full := run(1, 0)
	// Cap the log between two events of one cycle, past the snapshot.
	capAt := len(full.events) * 3 / 4
	for capAt < len(full.events) && full.events[capAt-1].Cycle != full.events[capAt].Cycle {
		capAt++
	}
	if capAt == len(full.events) {
		t.Fatal("no cycle past the snapshot records two events; the workload is too light")
	}
	for _, maxEvents := range []int{0, capAt} {
		want := full
		if maxEvents > 0 {
			want = run(1, maxEvents)
			if got := len(want.events); got != maxEvents {
				t.Fatalf("capped run logged %d events, want the %d-event cap", got, maxEvents)
			}
		}
		for _, shards := range shardCounts() {
			got := run(shards, maxEvents)
			if got.csv != want.csv {
				t.Errorf("cap %d, shards=%d: metrics CSV diverged from sequential", maxEvents, shards)
			}
			if got.trace != want.trace {
				t.Errorf("cap %d, shards=%d: Chrome trace diverged from sequential", maxEvents, shards)
			}
			if !bytes.Equal(got.snap, want.snap) {
				t.Errorf("cap %d, shards=%d: snapshot diverged from sequential", maxEvents, shards)
			}
		}
	}
}

// TestShardedSoak is the random-traffic soak: larger network, multiple
// seeds and patterns, full RunResult comparison, flit-leak accounting.
func TestShardedSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak is not -short")
	}
	base := core.DefaultRunParams()
	base.K = 8
	base.FlitsPerPacket = 2
	base.WarmupCycles = 300
	base.MeasureCycles = 900
	fingerprint := func(p core.RunParams) string {
		res, err := core.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		res.Params.Shards = 0 // the only field allowed to differ
		return fmt.Sprintf("%+v", res)
	}
	for _, tc := range []struct {
		pattern string
		rate    float64
		seed    int64
	}{
		{"uniform", 0.35, 1},
		{"uniform", 0.35, 7},
		{"transpose", 0.25, 1},
		{"tornado", 0.15, 2},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s-r%v-s%d", tc.pattern, tc.rate, tc.seed), func(t *testing.T) {
			p := base
			p.Pattern = tc.pattern
			p.Rate = tc.rate
			p.Seed = tc.seed
			p.Shards = 1
			want := fingerprint(p)
			for _, shards := range shardCounts() {
				p.Shards = shards
				if got := fingerprint(p); got != want {
					t.Errorf("shards=%d diverged:\n--- sequential ---\n%s\n--- sharded ---\n%s",
						shards, want, got)
				}
			}
		})
	}
}

// TestShardedServeSnapshots proves the live observability service keeps
// the determinism contract: the serve collector's snapshot phase is
// serial (barrier-side), so the full JSON stream of published snapshots —
// health verdicts, hot links, heatmaps, latency quantiles — is
// byte-identical for any shard count.
func TestShardedServeSnapshots(t *testing.T) {
	run := func(shards int) (string, int) {
		probe := telemetry.New(telemetry.Config{SampleEvery: 20})
		topo, err := topology.NewFoldedTorus(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		n, err := network.New(network.Config{
			Topo: topo, Router: router.DefaultConfig(0), Seed: 5, Probe: probe, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		for tile := 0; tile < topo.NumTiles(); tile++ {
			g := traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.2, 2, flit.VCMask(0xFF), 1)
			g.StopAt = 400
			n.AttachClient(tile, g)
		}
		smp, err := sampler.Attach(n, sampler.Config{Every: 64})
		if err != nil {
			t.Fatal(err)
		}
		col := serve.AttachCollector(smp, serve.Config{})
		var mirror strings.Builder
		col.SetMirror(&mirror)
		n.Run(400)
		if !n.Drain(10000) {
			t.Fatalf("shards=%d: did not drain", shards)
		}
		if err := col.MirrorErr(); err != nil {
			t.Fatalf("shards=%d: mirror error: %v", shards, err)
		}
		if col.Latest() == nil {
			t.Fatalf("shards=%d: no snapshot published", shards)
		}
		return mirror.String(), n.Shards()
	}
	want, seq := run(1)
	if seq != 1 {
		t.Fatalf("sequential run reports %d shards", seq)
	}
	if strings.Count(want, "\n") < 2 {
		t.Fatalf("mirror carries too few snapshots to prove anything:\n%s", want)
	}
	for _, shards := range shardCounts() {
		got, eff := run(shards)
		if eff != shards {
			t.Fatalf("network reports %d effective shards, want %d", eff, shards)
		}
		if got != want {
			t.Errorf("shards=%d: serve snapshot stream diverged from sequential", shards)
		}
	}
}
