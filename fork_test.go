package noc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// The warm-fork determinism suite: RunReplicated snapshots one warmup in
// memory and Forks it into a freshly built network per replica, and
// replica 0 must reproduce an uninterrupted Run byte for byte, at any
// shard count. The mid-run snapshot, rebuild
// and restore of the golden sweep itself is TestResumedGoldenSweep's grid.

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

// TestForkedGoldenSweep runs the golden load-latency sweep through the
// warm-fork engine at shard counts {1, 2, N}. At every shard count
// replica 0 of each point, which runs on past the warmup snapshot, must
// reproduce the committed sequential golden bytes, and replica 1, Forked
// from that snapshot into a freshly built network, must match the
// sequential run's replica 1 byte for byte.
func TestForkedGoldenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("forked golden sweeps are not -short")
	}
	want := readGolden(t, "golden_sweep_seed1.csv")
	var wantForked string
	shardList := append([]int{1}, shardCounts()...)
	for _, shards := range shardList {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			withShards(t, shards, func() {
				pts, err := core.SweepReplicated(goldenSweepBase(1), goldenSweepRates, 2)
				if err != nil {
					t.Fatal(err)
				}
				var straight, forked strings.Builder
				straight.WriteString(goldenSweepHeader)
				for _, pt := range pts {
					writeGoldenSweepRow(&straight, pt.Rate, pt.Replicas[0])
					forked.WriteString(forkResultRow(pt.Replicas[1]))
					forked.WriteByte('\n')
				}
				if got := straight.String(); got != want {
					t.Errorf("replica 0 diverged from straight-through golden\n--- want ---\n%s--- got ---\n%s", want, got)
				}
				if wantForked == "" {
					wantForked = forked.String()
				} else if got := forked.String(); got != wantForked {
					t.Errorf("forked replica diverged from the sequential fork\n--- want ---\n%s--- got ---\n%s", wantForked, got)
				}
			})
		})
	}
}

// TestReplicatedSweepMatchesRuns checks the sweep wrapper agrees with
// point-by-point RunReplicated calls, and each point's replica 0 with a
// separate Run, for the VC router and for deflection, whose routers fork
// like any other since they are a router mode.
func TestReplicatedSweepMatchesRuns(t *testing.T) {
	deflect := replicateParams()
	deflect.Deflect, deflect.FlitsPerPacket = true, 1
	for _, tc := range []struct {
		name string
		p    core.RunParams
	}{
		{"vc", replicateParams()},
		{"deflect", deflect},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rates := []float64{0.1, 0.3}
			pts, err := core.SweepReplicated(tc.p, rates, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i, rate := range rates {
				q := tc.p
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
				straight, err := core.Run(q)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := forkResultRow(want[0]), forkResultRow(straight); got != want {
					t.Errorf("rate %.2f: replica 0 diverged from a separate Run\n want %s\n got  %s", rate, want, got)
				}
			}
		})
	}
}

// TestRepeatedRunDeterminism: runs in one process share only the
// artifact cache (topology, adjacency and route table), so repeating a
// Run, with a saturating run of the same shape in between, must
// reproduce the first result byte for byte.
func TestRepeatedRunDeterminism(t *testing.T) {
	p := replicateParams()
	first, err := core.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	other := p
	other.Rate = 0.6 // drive a network of the same shape near saturation between runs
	if _, err := core.Run(other); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := core.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if forkResultRow(got) != forkResultRow(first) {
			t.Errorf("repeat %d: run diverged from the first\n want %s\n got  %s",
				i+1, forkResultRow(first), forkResultRow(got))
		}
	}
}
