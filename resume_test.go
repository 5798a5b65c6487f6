package noc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/telemetry"
)

// The resume determinism suite extends the cross-shard contract to
// checkpoint/restore: a golden experiment interrupted mid-run —
// snapshotted, torn down, rebuilt from configuration, and restored — must
// still produce the committed sequential goldens byte for byte, at any
// shard count. core.Options.ResumeAt drives the interruption: every Run
// and RunCampaign inside the experiment executes to the given fraction of
// its horizon, checkpoints, rebuilds a fresh network, restores, and
// continues there. (Runs with a client whose state cannot be checkpointed
// — e.g. E11's hand-built clients — fall back to running straight
// through, which must also reproduce the golden.) The options are per
// call, so the subtests run in parallel at different fractions and shard
// counts.

// TestResumedGoldenExperiments interrupts the pinned golden experiments
// at 25/50/75% of every run's horizon and resumes under shard counts
// {1, 2, N}. To bound runtime the fraction x shard-count matrix is paired
// diagonally (every fraction and every shard count appears; not every
// combination), rotated per experiment so the pairs differ across the
// goldenExperiments.
func TestResumedGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("resumed golden experiments are not -short")
	}
	fracs := []float64{0.25, 0.50, 0.75}
	shardList := append([]int{1}, shardCounts()...)
	for ei, id := range goldenExperiments {
		t.Run(id, func(t *testing.T) {
			want := readGolden(t, fmt.Sprintf("golden_%s_quick.txt", strings.ToLower(id)))
			e, err := core.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			for fi, frac := range fracs {
				shards := shardList[(ei+fi)%len(shardList)]
				t.Run(fmt.Sprintf("frac%.0f/shards%d", 100*frac, shards), func(t *testing.T) {
					t.Parallel()
					tbl, err := e.Run(true, core.Options{Shards: shards, ResumeAt: frac})
					if err != nil {
						t.Fatal(err)
					}
					if got := tbl.Format(); got != want {
						t.Errorf("resume at %.0f%%, shards=%d: %s diverged from straight-through golden\n--- want ---\n%s--- got ---\n%s",
							100*frac, shards, id, want, got)
					}
				})
			}
		})
	}
}

// TestResumedGoldenSweep interrupts every point of the golden
// load-latency sweep mid-run at shard counts {1, 2, N}, with the fraction
// rotating through 25/75/50% so every fraction and shard count is
// exercised. Every run must reproduce the committed sequential golden
// bytes.
func TestResumedGoldenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("resumed golden sweeps are not -short")
	}
	want := readGolden(t, "golden_sweep_seed1.csv")
	fracs := []float64{0.25, 0.75, 0.50}
	shardList := append([]int{1}, shardCounts()...)
	for si, shards := range shardList {
		frac := fracs[si%len(fracs)]
		t.Run(fmt.Sprintf("shards%d/frac%.0f", shards, 100*frac), func(t *testing.T) {
			t.Parallel()
			if got := goldenSweepCSV(t, 1, core.Options{Shards: shards, ResumeAt: frac}); got != want {
				t.Errorf("resumed sweep diverged from straight-through golden\n--- want ---\n%s--- got ---\n%s", want, got)
			}
		})
	}
}

// TestResumedProbeMatchesStraightRun: the in-memory resume rebuilds a
// second network over the same RunParams.Probe, whose registration must
// rebind the probe's records to the rebuilt network's router, port and
// link counters. A probe that kept reading the discarded network's
// counters would write a different metrics CSV from a straight run's.
func TestResumedProbeMatchesStraightRun(t *testing.T) {
	run := func(frac float64) string {
		p := core.DefaultRunParams()
		p.ResumeAt = frac
		p.Rate = 0.3
		p.WarmupCycles = 200
		p.MeasureCycles = 2000
		p.Seed = 5
		p.Probe = telemetry.New(telemetry.Config{SampleEvery: 100})
		if _, err := core.Run(p); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := p.Probe.WriteMetricsCSV(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	straight := run(0)
	if resumed := run(0.5); resumed != straight {
		t.Errorf("metrics CSV of a run resumed at 50%% differs from the straight run's\n--- straight ---\n%s--- resumed ---\n%s", straight, resumed)
	}
}

// TestResumedPhysCampaign: a campaign over the physical wire layer, with
// transient flips drawn from the wires' streams and masked by ECC,
// checkpoints: the in-memory resume rebuilds its network (the OnNetwork
// hook sees two builds, not one) and the resumed campaign counts exactly
// what the straight one does, at one shard and at two.
func TestResumedPhysCampaign(t *testing.T) {
	p := core.DefaultCampaignParams()
	p.Cycles = 1500
	p.Run.Seed = 3
	p.Run.PhysWires, p.Run.ECC = true, true
	p.Spec = "flip,link=4,p=0.2,at=100,until=1200;flip,link=9,p=0.2,at=300;kill,link=20,at=600"
	builds := 0
	var last *network.Network
	p.Run.OnNetwork = func(n *network.Network, _ core.SimSpec) error { builds, last = builds+1, n; return nil }
	run := func(opt core.Options) string {
		p := p
		p.Run.Options = opt
		r, err := core.RunCampaign(p)
		if err != nil {
			t.Fatal(err)
		}
		var corrected int64
		for _, l := range last.Links() {
			corrected += l.Phys.CorrectedFlits
		}
		return fmt.Sprintf("sent %d delivered %d injected %d detections %d rerouted %d corrected %d",
			r.Sent, r.Delivered, r.Injected, len(r.Detections), r.Totals.Rerouted, corrected)
	}
	straight := run(core.Options{})
	if strings.HasSuffix(straight, "corrected 0") {
		t.Fatalf("no flip was corrected (%s): the wires' streams went unexercised", straight)
	}
	for _, shards := range []int{1, 2} {
		builds = 0
		resumed := run(core.Options{Shards: shards, ResumeAt: 0.5})
		if builds != 2 {
			t.Errorf("shards=%d: %d network builds, want 2 (the campaign did not resume)", shards, builds)
		}
		if resumed != straight {
			t.Errorf("shards=%d: resumed campaign %s, straight %s", shards, resumed, straight)
		}
	}
}
