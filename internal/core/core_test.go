package core

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/telemetry"
)

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(true, Options{})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			out := tbl.Format()
			if !strings.Contains(out, e.ID) {
				t.Fatalf("%s format missing id:\n%s", e.ID, out)
			}
			if md := tbl.Markdown(); !strings.Contains(md, "|") {
				t.Fatalf("%s markdown malformed", e.ID)
			}
			if strings.Contains(out, "FAIL") || strings.Contains(out, "UNEXPECTED") {
				t.Fatalf("%s reports failure:\n%s", e.ID, out)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("E3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunLowLoadLatencyNearZeroLoad(t *testing.T) {
	p := DefaultRunParams()
	p.Rate = 0.02
	p.MeasureCycles = 2000
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-load: 2H+2 with H_avg = 32/15 for the 4x4 torus -> ~6.3 cycles;
	// at 2% load queueing adds little.
	if res.AvgLatency < 6 || res.AvgLatency > 10 {
		t.Fatalf("low-load latency = %v, want ≈6.3", res.AvgLatency)
	}
	if res.AcceptedFlits < 0.015 || res.AcceptedFlits > 0.025 {
		t.Fatalf("accepted = %v, want ≈0.02", res.AcceptedFlits)
	}
	if res.DroppedPackets != 0 {
		t.Fatalf("drops at low load: %d", res.DroppedPackets)
	}
}

func TestRunDeterministic(t *testing.T) {
	p := DefaultRunParams()
	p.Rate = 0.3
	p.MeasureCycles = 1000
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatency != b.AvgLatency || a.DeliveredPackets != b.DeliveredPackets {
		t.Fatalf("nondeterministic runs: %+v vs %+v", a, b)
	}
}

func TestTorusOutperformsMeshAtSaturation(t *testing.T) {
	// The E4 headline, asserted numerically: the folded torus saturates at
	// a meaningfully higher accepted throughput than the mesh.
	rates := []float64{0.3, 0.5, 0.7, 0.9}
	base := DefaultRunParams()
	base.K = 8 // the bisection gap is injection-masked at the paper's k=4
	base.WarmupCycles, base.MeasureCycles = 500, 1500
	base.FlitsPerPacket = 2
	meshP, torusP := base, base
	meshP.Topology = "mesh"
	mesh, err := Sweep(meshP, rates)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := Sweep(torusP, rates)
	if err != nil {
		t.Fatal(err)
	}
	satM, satT := SaturationRate(mesh), SaturationRate(torus)
	if satT <= satM*1.3 {
		t.Fatalf("torus saturation %v not clearly above mesh %v", satT, satM)
	}
}

func TestLatencyMonotoneInLoad(t *testing.T) {
	rates := []float64{0.1, 0.4, 0.8}
	base := DefaultRunParams()
	base.WarmupCycles, base.MeasureCycles = 500, 1500
	pts, err := Sweep(base, rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Result.AvgLatency < pts[i-1].Result.AvgLatency {
			t.Fatalf("latency fell with load: %v", pts)
		}
	}
}

func TestBuildTopologyValidation(t *testing.T) {
	if _, err := BuildTopology("hypercube", 4); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestSaturationRateLogic(t *testing.T) {
	mk := func(rate, accepted float64) SweepPoint {
		return SweepPoint{Rate: rate, Result: RunResult{AcceptedFlits: accepted}}
	}
	pts := []SweepPoint{mk(0.2, 0.2), mk(0.4, 0.39), mk(0.6, 0.45), mk(0.8, 0.46)}
	sat := SaturationRate(pts)
	if sat < 0.4 || sat > 0.5 {
		t.Fatalf("saturation = %v, want ≈0.45", sat)
	}
	if got := SaturationRate([]SweepPoint{mk(0.2, 0.2), mk(0.4, 0.39)}); got != 0.4 {
		t.Errorf("saturation of a sweep that never falls below 90%% = %v, want its highest offered rate 0.4", got)
	}
}

// TestSaturationRateIsContinuous: two sweeps whose 0.8 point accepts
// 0.726 and 0.709, either side of the 90% line, differ by 2.3% at that
// point, and their estimates must differ by less than 5%. A threshold
// estimator read 0.80 and 0.714 (−10.75%).
func TestSaturationRateIsContinuous(t *testing.T) {
	sweep := func(accepted ...float64) []SweepPoint {
		var pts []SweepPoint
		for i, a := range accepted {
			pts = append(pts, SweepPoint{Rate: 0.7 + 0.1*float64(i), Result: RunResult{AcceptedFlits: a}})
		}
		return pts
	}
	above := SaturationRate(sweep(0.691, 0.726, 0.714))
	below := SaturationRate(sweep(0.691, 0.709, 0.714))
	if d := math.Abs(above-below) / above; d >= 0.05 {
		t.Errorf("estimates %.4f and %.4f differ by %.1f%%, want under 5%%", above, below, 100*d)
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tbl := &Table{ID: "EX", Title: "t", Columns: []string{"a", "long-column"}}
	tbl.AddRow("1")
	tbl.AddRow("22", "333", "extra-dropped")
	out := tbl.Format()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header line, columns, separator, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestE3OverheadUnder15Percent(t *testing.T) {
	tbl, err := E3Power(true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The exact-expectation row's overhead must be < 15%.
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "exact expectation") {
			v := strings.TrimSuffix(row[3], "%")
			ov, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			if ov <= 0 || ov >= 15 {
				t.Fatalf("exact torus overhead %v%%, want (0, 15)", ov)
			}
			return
		}
	}
	t.Fatal("exact row missing")
}

func TestE8ZeroJitterRows(t *testing.T) {
	tbl, err := E8Reservation(true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sawDynamicJitter bool
	for _, row := range tbl.Rows {
		if row[1] == "reserved" && row[4] != "0" {
			t.Fatalf("reserved stream jitter %s at load %s", row[4], row[0])
		}
		if row[1] == "dynamic" && row[0] != "0.0%" && row[4] != "0" {
			sawDynamicJitter = true
		}
	}
	if !sawDynamicJitter {
		t.Fatal("dynamic stream never jittered under load; contrast lost")
	}
}

func TestRunAdaptiveAndCutThroughModes(t *testing.T) {
	base := DefaultRunParams()
	base.Topology = "mesh"
	base.Rate = 0.2
	base.FlitsPerPacket = 2
	base.WarmupCycles, base.MeasureCycles = 300, 1000

	adaptive := base
	adaptive.Adaptive = true
	res, err := Run(adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredPackets == 0 || res.AcceptedFlits < 0.15 {
		t.Fatalf("adaptive run delivered little: %+v", res)
	}

	vct := base
	vct.CutThrough = true
	res, err = Run(vct)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredPackets == 0 {
		t.Fatal("cut-through run delivered nothing")
	}

	// Adaptive on a torus is a configuration error surfaced through Run.
	bad := base
	bad.Topology = "torus"
	bad.Adaptive = true
	if _, err := Run(bad); err == nil {
		t.Fatal("adaptive torus accepted")
	}
}

func TestRunElasticMode(t *testing.T) {
	p := DefaultRunParams()
	p.Topology = "mesh"
	p.ElasticLinks = true
	p.BufFlits = 1
	p.Rate = 0.2
	p.WarmupCycles, p.MeasureCycles = 300, 1000
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.AcceptedFlits < 0.15 {
		t.Fatalf("elastic 1-flit-buffer mesh accepted only %v", res.AcceptedFlits)
	}
}

// TestRunReplicatedRefusals: a run with a probe or an OnNetwork hook
// cannot warm-fork, and the error names the reason. A replica count past
// MaxReplicas is refused too.
func TestRunReplicatedRefusals(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		mod        func(*RunParams)
	}{
		{"probe", "probe", func(p *RunParams) { p.Probe = telemetry.New(telemetry.Config{}) }},
		{"hook", "OnNetwork", func(p *RunParams) { p.OnNetwork = func(*network.Network, SimSpec) error { return nil } }},
	} {
		p := DefaultRunParams()
		tc.mod(&p)
		if _, err := RunReplicated(p, 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunReplicated with a %s: err = %v, want the refusal naming %q", tc.name, err, tc.want)
		}
	}
	// The replica count sizes the result slice up front, so a count past
	// MaxReplicas fails before anything runs instead of panicking in make
	// or exhausting memory.
	for _, n := range []int{MaxReplicas + 1, math.MaxInt} {
		if _, err := RunReplicated(DefaultRunParams(), n); err == nil || !strings.Contains(err.Error(), "replicas") {
			t.Errorf("RunReplicated(p, %d) err = %v, want the replica cap", n, err)
		}
	}
}
