package noc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// The warm-fork determinism suite extends the resume contract to the
// in-memory campaign engine: a run forked mid-flight — snapshotted to a
// byte buffer, its network Reset in place, fresh clients attached, and
// the snapshot restored with Network.Fork — must reproduce the
// committed straight-through goldens byte for byte, at any shard count
// and epoch-batching setting. This is a strictly stronger claim than
// resume (which restores into a *newly built* network): the fork path
// additionally proves that arena Reset returns a used network to a
// state indistinguishable from freshly constructed.

// forkAt arranges for fn to run with the in-memory fork point set,
// restoring the straight-through default afterwards.
func forkAt(t *testing.T, frac float64, fn func()) {
	t.Helper()
	core.SetForkAt(frac)
	defer core.SetForkAt(0)
	fn()
}

// TestForkedGoldenSweep forks the golden load-latency sweep mid-point
// across the shards {1, 2, N} × batching {off, default} grid, with the
// fork fraction rotating through 25/50/75% so every fraction, shard
// count, and batching setting is exercised. Every cell must reproduce
// the committed sequential golden bytes.
func TestForkedGoldenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("forked golden sweeps are not -short")
	}
	want := readGolden(t, "golden_sweep_seed1.csv")
	fracs := []float64{0.25, 0.50, 0.75}
	shardList := append([]int{1}, shardCounts()...)
	for si, shards := range shardList {
		for bi, batch := range []int{-1, 0} { // off, network default
			frac := fracs[(si*2+bi)%len(fracs)]
			name := fmt.Sprintf("shards%d/batch%d/frac%.0f", shards, batch, 100*frac)
			t.Run(name, func(t *testing.T) {
				forkAt(t, frac, func() {
					withShards(t, shards, func() {
						withBatching(t, batch, func() {
							if got := goldenSweepCSV(t, 1); got != want {
								t.Errorf("forked sweep diverged from straight-through golden\n--- want ---\n%s--- got ---\n%s", want, got)
							}
						})
					})
				})
			})
		}
	}
}

// forkResultRow formats the measurement outputs of one RunResult for
// byte comparison (Params carries func fields, so struct equality is
// unavailable). The energies go in as their exact bits.
func forkResultRow(r core.RunResult) string {
	return fmt.Sprintf("%.4f,%.4f,%d,%d,%d,%.4f,%.6f,%.6f,%d,%d,seed=%d,energy=%x/%x",
		r.AcceptedFlits, r.AvgLatency, r.P50Latency, r.P99Latency, r.MaxLatency,
		r.AvgNetLat, r.LinkUtilMean, r.LinkUtilMax, r.DeliveredPackets,
		r.DroppedPackets, r.Params.Seed, math.Float64bits(r.HopEnergyJ), math.Float64bits(r.WireEnergyJ))
}

func forkResultRows(rs []core.RunResult) string {
	var sb strings.Builder
	for _, r := range rs {
		sb.WriteString(forkResultRow(r))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func replicateParams() core.RunParams {
	p := core.DefaultRunParams()
	p.WarmupCycles = 400
	p.MeasureCycles = 1200
	p.FlitsPerPacket = 2
	p.Rate = 0.25
	return p
}

// TestReplicatedRunDeterminism pins the warm-fork replication contract:
// replica 0 reproduces an uninterrupted Run byte for byte (same
// generators, same streams, network restored from its own warmup
// snapshot), and the whole replica vector is identical across repeated
// invocations and across shard counts.
func TestReplicatedRunDeterminism(t *testing.T) {
	p := replicateParams()
	straight, err := core.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := core.RunReplicated(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d replicas, want 3", len(rs))
	}
	if got, want := forkResultRow(rs[0]), forkResultRow(straight); got != want {
		t.Errorf("replica 0 diverged from uninterrupted Run\n want %s\n got  %s", want, got)
	}
	again, err := core.RunReplicated(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := forkResultRows(again), forkResultRows(rs); got != want {
		t.Errorf("repeated RunReplicated diverged\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	for _, shards := range shardCounts() {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			withShards(t, shards, func() {
				sharded, err := core.RunReplicated(p, 3)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := forkResultRows(sharded), forkResultRows(rs); got != want {
					t.Errorf("sharded replication diverged from sequential\n--- want ---\n%s--- got ---\n%s", want, got)
				}
			})
		})
	}
}

// TestReplicatedSweepMatchesRuns checks the sweep wrapper agrees with
// point-by-point RunReplicated calls.
func TestReplicatedSweepMatchesRuns(t *testing.T) {
	p := replicateParams()
	rates := []float64{0.1, 0.3}
	pts, err := core.SweepReplicated(p, rates, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range rates {
		q := p
		q.Rate = rate
		want, err := core.RunReplicated(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := forkResultRows(pts[i].Replicas); got != forkResultRows(want) {
			t.Errorf("rate %.2f: sweep point diverged from direct replication\n--- want ---\n%s--- got ---\n%s",
				rate, forkResultRows(want), got)
		}
		if m := pts[i].Mean(); m.DeliveredPackets != want[0].DeliveredPackets+want[1].DeliveredPackets {
			t.Errorf("rate %.2f: Mean() delivered %d, want sum %d",
				rate, m.DeliveredPackets, want[0].DeliveredPackets+want[1].DeliveredPackets)
		}
	}
}

// TestArenaReuseDeterminism pins the arena Reset ≡ New invariant at the
// Run level: the second and third Run of a configuration execute on a
// pooled network re-initialized in place, interleaved with a different
// rate to dirty the pool, and every repetition must reproduce the first
// (fresh-build) result byte for byte.
func TestArenaReuseDeterminism(t *testing.T) {
	core.DrainArena()
	p := replicateParams()
	first, err := core.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	other := p
	other.Rate = 0.6 // drive the pooled network near saturation between runs
	if _, err := core.Run(other); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := core.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if forkResultRow(got) != forkResultRow(first) {
			t.Errorf("reuse %d: pooled run diverged from fresh build\n want %s\n got  %s",
				i+1, forkResultRow(first), forkResultRow(got))
		}
	}
}
