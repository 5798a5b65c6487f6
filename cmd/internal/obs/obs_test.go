package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/serve"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestValidate pins the flag-consistency contract shared by every command:
// output files whose collection flag is missing are an error at parse
// time, not a silently empty artifact after a long run.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		f       Flags
		wantErr string
	}{
		{"zero value", Flags{}, ""},
		{"metrics alone", Flags{Metrics: true}, ""},
		{"metrics with every", Flags{Metrics: true, MetricsEvery: 100}, ""},
		{"serve alone", Flags{Serve: "127.0.0.1:0"}, ""},
		{"metrics-out with metrics", Flags{Metrics: true, MetricsOut: "m.csv"}, ""},
		{"trace-out with metrics", Flags{Metrics: true, TraceOut: "t.json"}, ""},
		{"negative every", Flags{Metrics: true, MetricsEvery: -1}, "-metrics-every must be >= 0"},
		{"metrics-out without metrics", Flags{MetricsOut: "m.csv"}, "-metrics-out requires -metrics"},
		{"trace-out without metrics", Flags{TraceOut: "t.json"}, "-tracefile-out requires -metrics"},
		{"trace-out with serve only", Flags{Serve: ":0", TraceOut: "t.json"}, "-tracefile-out requires -metrics"},
		{"flightrec alone", Flags{FlightRec: true}, ""},
		{"flightrec with cycles", Flags{FlightRec: true, FlightRecCycles: 8192}, ""},
		{"flightrec with dir", Flags{FlightRec: true, FlightRecDir: "dumps"}, ""},
		{"flightrec-cycles without flightrec", Flags{FlightRecCycles: 8192}, "-flightrec-cycles requires -flightrec"},
		{"flightrec-dir without flightrec", Flags{FlightRecDir: "dumps"}, "-flightrec-dir requires -flightrec"},
		{"negative flightrec-cycles", Flags{FlightRec: true, FlightRecCycles: -1}, "-flightrec-cycles must be >= 0"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestEnabled pins which flags imply a telemetry probe: any of them except
// -pprof, which profiles the probe-less fast path.
func TestEnabled(t *testing.T) {
	if (&Flags{}).Enabled() {
		t.Error("zero flags report Enabled")
	}
	if (&Flags{Pprof: "cpu.out"}).Enabled() {
		t.Error("-pprof alone must not attach a probe")
	}
	for _, f := range []Flags{
		{Metrics: true},
		{MetricsEvery: 10},
		{MetricsOut: "m.csv"},
		{TraceOut: "t.json"},
		{Serve: ":0"},
		{FlightRec: true},
	} {
		if !f.Enabled() {
			t.Errorf("%+v does not report Enabled", f)
		}
	}
	if p := (&Flags{}).NewProbe(); p != nil {
		t.Error("disabled flags built a probe; the zero-overhead path is lost")
	}
	if p := (&Flags{Serve: ":0"}).NewProbe(); p == nil {
		t.Error("-serve did not build a probe")
	}
}

// TestAttachSharesOneCadence pins that /healthz and the flight recorder
// judge one observation at one cadence: under -metrics-every 64 a wedged
// network's first unhealthy deadlock sample on the live service is the
// transition the recorder's dump logs, and the dump is stamped with the
// same cadence. Separately sampled, the recorder kept its own 256-cycle
// cadence and fired 384 cycles after /healthz.
func TestAttachSharesOneCadence(t *testing.T) {
	f := &Flags{Serve: "127.0.0.1:0", FlightRec: true, FlightRecDir: t.TempDir(), MetricsEvery: 64}
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 5, Probe: f.NewProbe()})
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		g := traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.3, 2, flit.VCMask(0xFF), 5)
		g.StopAt = 300
		n.AttachClient(tile, g)
	}
	stack, err := f.Attach(n, core.DefaultRunParams().SimSpec("run", ""))
	if err != nil {
		t.Fatal(err)
	}
	var mirror strings.Builder
	stack.srv.Collector().SetMirror(&mirror)
	n.Run(100)
	for _, d := range []route.Dir{route.North, route.East, route.South, route.West} {
		n.SetPortStall(5, d, true)
	}
	n.Run(3000)
	stack.Close()

	live := int64(-1)
	for _, line := range strings.Split(strings.TrimSpace(mirror.String()), "\n") {
		var snap serve.Snapshot
		if err := json.Unmarshal([]byte(line), &snap); err != nil {
			t.Fatal(err)
		}
		for _, v := range snap.Health {
			if v.Detector == health.DetectorDeadlock && !v.Healthy && live < 0 {
				live = snap.Cycle
			}
		}
	}
	if live < 0 {
		t.Fatal("/healthz never reported the deadlock")
	}

	dumps := stack.rec.Dumps()
	if len(dumps) == 0 {
		t.Fatal("the recorder wrote no dump")
	}
	var dp *flightrec.Dump
	for _, path := range dumps {
		if dp, err = flightrec.LoadDump(path); err != nil {
			t.Fatal(err)
		}
		if dp.Reason == "detector-deadlock" {
			break
		}
	}
	if dp.Reason != "detector-deadlock" {
		t.Fatalf("no deadlock dump among %v", dumps)
	}
	if dp.Every != 64 {
		t.Fatalf("dump cadence %d, want the -metrics-every 64", dp.Every)
	}
	recorded := int64(-1)
	for _, ev := range dp.Health {
		if ev.Detector == health.DetectorDeadlock && !ev.Healthy {
			recorded = ev.Cycle
			break
		}
	}
	if recorded != live {
		t.Fatalf("dump records the deadlock at cycle %d, /healthz first reported it at %d", recorded, live)
	}
}
