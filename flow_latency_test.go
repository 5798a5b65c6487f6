package noc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/telemetry/latency"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// buildFlowNet is the reconciliation workload: the 16-tile baseline under
// 25% uniform load with a 100-cycle warmup, at the requested shard count,
// with the per-flow observatory attached.
func buildFlowNet(t *testing.T, shards int, mode, slo string) (*network.Network, *latency.Observatory) {
	t.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.New(network.Config{
		Topo: topo, Router: router.DefaultConfig(0), Seed: 11, Warmup: 100, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		g := traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.25, 2, flit.VCMask(0xFF), 1)
		g.StopAt = 800
		n.AttachClient(tile, g)
	}
	o, err := latency.Attach(n, latency.Config{Flows: mode, SLO: slo})
	if err != nil {
		t.Fatal(err)
	}
	return n, o
}

// TestFlowLatencyReconciliation pins the observatory's accounting
// contract at shard counts {1, 2, N}: the per-flow sums
// reconcile exactly with the run recorder's packet-latency histogram
// (same warmup gate, same loopback exclusion), and the full per-flow CSV
// is byte-identical to the sequential run's — the decomposition is not
// merely consistent, it is deterministic.
func TestFlowLatencyReconciliation(t *testing.T) {
	var want string
	for _, shards := range append([]int{1}, shardCounts()...) {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			n, o := buildFlowNet(t, shards, latency.FlowPair, "p99<=40")
			n.Run(800)
			if !n.Drain(100000) {
				t.Fatalf("network did not drain (occupancy %d)", n.Occupancy())
			}
			rec := n.Recorder()
			count, sum := o.Totals()
			if count == 0 {
				t.Fatal("no packets observed; reconciliation is vacuous")
			}
			if count != rec.PacketLatency.Count() {
				t.Errorf("observatory count %d != recorder count %d", count, rec.PacketLatency.Count())
			}
			if sum != rec.PacketLatency.Sum() {
				t.Errorf("observatory latency sum %d != recorder sum %d", sum, rec.PacketLatency.Sum())
			}
			var csv strings.Builder
			if err := o.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			if want == "" {
				want = csv.String()
				if !strings.HasPrefix(want, "# flows\n") {
					t.Fatalf("CSV lacks the section header:\n%s", want[:80])
				}
			} else if got := csv.String(); got != want {
				t.Errorf("per-flow CSV diverged from the sequential run at shards=%d", shards)
			}
		})
	}
}

// TestFlowLatencyCheckpointRoundTrip interrupts the workload mid-run,
// restores the snapshot into a freshly built network with the
// observatory re-attached, and requires the resumed run's per-flow CSV —
// and a second full checkpoint — to byte-match the straight-through
// run's, at the same shard counts.
func TestFlowLatencyCheckpointRoundTrip(t *testing.T) {
	const hash = 77
	for _, shards := range append([]int{1}, shardCounts()...) {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			ref, refObs := buildFlowNet(t, shards, latency.FlowPair, "p99<=40")
			ref.Run(400)
			snap, err := ref.SaveCheckpoint(hash, 400)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(400)
			wantSnap, err := ref.SaveCheckpoint(hash, 800)
			if err != nil {
				t.Fatal(err)
			}
			var wantCSV strings.Builder
			if err := refObs.WriteCSV(&wantCSV); err != nil {
				t.Fatal(err)
			}

			f, err := checkpoint.Parse(snap)
			if err != nil {
				t.Fatal(err)
			}
			res, resObs := buildFlowNet(t, shards, latency.FlowPair, "p99<=40")
			if err := res.RestoreCheckpoint(f); err != nil {
				t.Fatal(err)
			}
			res.Run(400)
			gotSnap, err := res.SaveCheckpoint(hash, 800)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotSnap) != string(wantSnap) {
				t.Errorf("resumed checkpoint bytes diverge from straight-through (%d vs %d bytes)",
					len(gotSnap), len(wantSnap))
			}
			var gotCSV strings.Builder
			if err := resObs.WriteCSV(&gotCSV); err != nil {
				t.Fatal(err)
			}
			if gotCSV.String() != wantCSV.String() {
				t.Errorf("resumed per-flow CSV diverged from straight-through:\n--- want ---\n%s--- got ---\n%s",
					wantCSV.String(), gotCSV.String())
			}
		})
	}
}

// TestFlowLatencyCheckpointConfigGuard requires a restore under a
// different observatory configuration to fail loudly instead of
// silently misaccounting.
func TestFlowLatencyCheckpointConfigGuard(t *testing.T) {
	n, _ := buildFlowNet(t, 1, latency.FlowPair, "p99<=40")
	n.Run(300)
	snap, err := n.SaveCheckpoint(1, 300)
	if err != nil {
		t.Fatal(err)
	}
	f, err := checkpoint.Parse(snap)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := buildFlowNet(t, 1, latency.FlowSrcRow, "p99<=40")
	if err := other.RestoreCheckpoint(f); err == nil {
		t.Error("restore into a different flow mode succeeded")
	}
	f2, err := checkpoint.Parse(snap)
	if err != nil {
		t.Fatal(err)
	}
	diffSLO, _ := buildFlowNet(t, 1, latency.FlowPair, "p50<=40")
	if err := diffSLO.RestoreCheckpoint(f2); err == nil {
		t.Error("restore under different objectives succeeded")
	}
}

// TestFlowObservatoryShardInvariant runs a srcrow observatory with an SLO
// on a busy 8×8 torus and requires the same snapshot bytes, the
// observatory's exemplar rings included, at every shard count. Several
// packets of one source row arrive in the same cycle at different tiles,
// and the tight target makes most of them exemplars, so the rings record
// the observer's delivery order.
func TestFlowObservatoryShardInvariant(t *testing.T) {
	const hash = 77
	run := func(shards int) ([]byte, [][]uint64) {
		topo, err := topology.NewFoldedTorus(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		n, err := network.New(network.Config{
			Topo: topo, Router: router.DefaultConfig(0), Seed: 11, Warmup: 100, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		for tile := 0; tile < topo.NumTiles(); tile++ {
			n.AttachClient(tile, traffic.NewGenerator(tile, traffic.Uniform{Tiles: 64}, 0.3, 2, flit.VCMask(0xFF), 1))
		}
		o, err := latency.Attach(n, latency.Config{Flows: latency.FlowSrcRow, SLO: "p99<=12"})
		if err != nil {
			t.Fatal(err)
		}
		n.Run(1500)
		snap, err := n.Snapshot(hash)
		if err != nil {
			t.Fatal(err)
		}
		var ex [][]uint64
		for fi := 0; fi < o.NumFlows(); fi++ {
			ex = append(ex, o.Exemplars(fi))
		}
		return snap, ex
	}
	wantSnap, wantEx := run(1)
	for _, shards := range shardCounts() {
		gotSnap, gotEx := run(shards)
		if fmt.Sprint(gotEx) != fmt.Sprint(wantEx) {
			t.Errorf("shards=%d: exemplar rings %v, sequential run %v", shards, gotEx, wantEx)
		}
		if string(gotSnap) != string(wantSnap) {
			t.Errorf("shards=%d: snapshot bytes diverge from the sequential run (%d vs %d bytes)",
				shards, len(gotSnap), len(wantSnap))
		}
	}
}
