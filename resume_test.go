package noc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// The resume determinism suite extends the cross-shard contract to
// checkpoint/restore: a golden experiment interrupted mid-run —
// snapshotted, torn down, rebuilt from configuration, and restored — must
// still produce the committed sequential goldens byte for byte, at any
// shard count. core.SetResumeAt drives the interruption: every Run and
// RunCampaign inside the experiment executes to the given fraction of its
// horizon, checkpoints, rebuilds a fresh network, restores, and continues
// there. (Runs whose configuration cannot be checkpointed — e.g. E20's
// physical-wire scenario — fall back to running straight through, which
// must also reproduce the golden.)

// resumeAt arranges for fn to run with the in-memory resume point set,
// restoring the straight-through default afterwards.
func resumeAt(t *testing.T, frac float64, fn func()) {
	t.Helper()
	core.SetResumeAt(frac)
	defer core.SetResumeAt(0)
	fn()
}

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
		id, ei := id, ei
		t.Run(id, func(t *testing.T) {
			want := readGolden(t, fmt.Sprintf("golden_%s_quick.txt", strings.ToLower(id)))
			for fi, frac := range fracs {
				shards := shardList[(ei+fi)%len(shardList)]
				t.Run(fmt.Sprintf("frac%.0f/shards%d", 100*frac, shards), func(t *testing.T) {
					resumeAt(t, frac, func() {
						withShards(t, shards, func() {
							e, err := core.ByID(id)
							if err != nil {
								t.Fatal(err)
							}
							tbl, err := e.Run(true)
							if err != nil {
								t.Fatal(err)
							}
							if got := tbl.Format(); got != want {
								t.Errorf("resume at %.0f%%, shards=%d: %s diverged from straight-through golden\n--- want ---\n%s--- got ---\n%s",
									100*frac, shards, id, want, got)
							}
						})
					})
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
			resumeAt(t, frac, func() {
				withShards(t, shards, func() {
					if got := goldenSweepCSV(t, 1); got != want {
						t.Errorf("resumed sweep diverged from straight-through golden\n--- want ---\n%s--- got ---\n%s", want, got)
					}
				})
			})
		})
	}
}

// TestResumedProbeMatchesStraightRun: the in-memory resume rebuilds a
// second network over the same RunParams.Probe, whose registration must
// rebind the probe's records to the rebuilt network's router, port and
// link counters. A probe that kept reading the discarded network's
// counters would write a different metrics CSV from a straight run's.
func TestResumedProbeMatchesStraightRun(t *testing.T) {
	run := func() string {
		p := core.DefaultRunParams()
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
	straight := run()
	var resumed string
	resumeAt(t, 0.5, func() { resumed = run() })
	if resumed != straight {
		t.Errorf("metrics CSV of a run resumed at 50%% differs from the straight run's\n--- straight ---\n%s--- resumed ---\n%s", straight, resumed)
	}
}
