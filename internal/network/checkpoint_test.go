package network

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/flit"
	"repro/internal/router"
	"repro/internal/topology"
)

// ckptClient is a deterministic random-traffic client with checkpointable
// state, standing in for the traffic package (which would be an import
// cycle here).
type ckptClient struct {
	tile    int
	rng     *rand.Rand
	seed    int64
	draw    uint64
	sent    int64
	stopped bool
}

func newCkptClient(tile int, seed int64) *ckptClient {
	c := &ckptClient{tile: tile, seed: seed}
	c.rng = rand.New(rand.NewSource(seed))
	return c
}

func (c *ckptClient) Tick(now int64, p *Port) {
	p.Deliveries()
	if c.stopped {
		return
	}
	c.draw++
	if c.rng.Float64() < 0.08 {
		dst := (c.tile + 1 + int(c.draw)%15) % 16
		if dst != c.tile {
			if _, err := p.Send(dst, []byte{byte(now), byte(c.tile)}, flit.VCMask(0xFF), 0); err == nil {
				c.sent++
			}
		}
	}
}

func (c *ckptClient) SaveState(e *checkpoint.Encoder) {
	e.U64(c.draw)
	e.I64(c.sent)
}

func (c *ckptClient) RestoreState(d *checkpoint.Decoder) {
	c.draw = d.U64()
	c.sent = d.I64()
	c.rng = rand.New(rand.NewSource(c.seed))
	for i := uint64(0); i < c.draw; i++ {
		c.rng.Float64()
	}
}

func buildCkptNet(t *testing.T, shards, watchdog int) *Network {
	t.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := router.DefaultConfig(0)
	n, err := New(Config{
		Topo: topo, Router: rc, Seed: 42, Warmup: 50,
		Shards: shards, Watchdog: watchdog,
	})
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < 16; tile++ {
		n.AttachClient(tile, newCkptClient(tile, 7*int64(tile)+1))
	}
	return n
}

// TestForkMatchesStraightRun snapshots a run at cycle w, forks the image
// into a freshly built network, and requires the fork's snapshot after
// w+m cycles to match the straight run's byte for byte, at shards 1 and
// 2. A Fork that skipped its restore would start the fork from cycle 0.
func TestForkMatchesStraightRun(t *testing.T) {
	const hash, w, m = 99, 250, 350
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ref := buildCkptNet(t, shards, 0)
			ref.Run(w)
			img, err := ref.Snapshot(hash)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(m)
			want, err := ref.Snapshot(hash)
			if err != nil {
				t.Fatal(err)
			}
			fork := buildCkptNet(t, shards, 0)
			if err := fork.Fork(img, hash); err != nil {
				t.Fatal(err)
			}
			fork.Run(m)
			if now := fork.Kernel().Now(); now != w+m {
				t.Errorf("fork ends at cycle %d, want %d", now, w+m)
			}
			got, err := fork.Snapshot(hash)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("forked run diverges from the straight run (snapshot %d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestCheckpointRoundTrip saves mid-run, restores into a fresh network,
// and requires the resumed run's state — as witnessed by a second
// checkpoint — to be byte-identical to the uninterrupted run's.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ref := buildCkptNet(t, shards, 0)
			ref.Run(300)
			snap, err := ref.SaveCheckpoint(99, 300)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(300)
			want, err := ref.SaveCheckpoint(99, 600)
			if err != nil {
				t.Fatal(err)
			}

			f, err := checkpoint.Parse(snap)
			if err != nil {
				t.Fatal(err)
			}
			if f.Cycle != 300 || f.ConfigHash != 99 {
				t.Fatalf("header = (cycle %d, hash %d), want (300, 99)", f.Cycle, f.ConfigHash)
			}
			res := buildCkptNet(t, shards, 0)
			if err := res.RestoreCheckpoint(f); err != nil {
				t.Fatal(err)
			}
			if got := res.Kernel().Now(); got != 300 {
				t.Fatalf("restored clock = %d, want 300", got)
			}
			res.Run(300)
			got, err := res.SaveCheckpoint(99, 600)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("resumed state diverges from the uninterrupted run (snapshot %d vs %d bytes)", len(got), len(want))
			}
			if s := res.Recorder().String(); s != ref.Recorder().String() {
				t.Fatalf("recorder diverged:\nresumed  %s\nstraight %s", s, ref.Recorder().String())
			}
		})
	}
}

// TestCheckpointShardInvariant requires the snapshot bytes to be
// identical for any shard count.
func TestCheckpointShardInvariant(t *testing.T) {
	var want []byte
	for _, shards := range []int{1, 2, 4} {
		n := buildCkptNet(t, shards, 0)
		n.Run(250)
		snap, err := n.SaveCheckpoint(1, 250)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = snap
			continue
		}
		if string(snap) != string(want) {
			t.Fatalf("shards=%d snapshot differs from shards=1 (%d vs %d bytes)", shards, len(snap), len(want))
		}
	}
}

// TestCheckpointCrossShardRestore saves under one shard count and resumes
// under others: the continued runs must all converge on identical state.
func TestCheckpointCrossShardRestore(t *testing.T) {
	src := buildCkptNet(t, 1, 0)
	src.Run(300)
	snap, err := src.SaveCheckpoint(5, 300)
	if err != nil {
		t.Fatal(err)
	}
	src.Run(200)
	want, err := src.SaveCheckpoint(5, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		f, err := checkpoint.Parse(snap)
		if err != nil {
			t.Fatal(err)
		}
		res := buildCkptNet(t, shards, 0)
		if err := res.RestoreCheckpoint(f); err != nil {
			t.Fatal(err)
		}
		res.Run(200)
		got, err := res.SaveCheckpoint(5, 500)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("resume at shards=%d diverges from straight-through shards=1", shards)
		}
	}
}

// TestCheckpointRejectsMismatchedNetwork requires structural mismatches to
// surface as errors, not corruption.
func TestCheckpointRejectsMismatchedNetwork(t *testing.T) {
	n := buildCkptNet(t, 1, 0)
	n.Run(100)
	snap, err := n.SaveCheckpoint(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	f, err := checkpoint.Parse(snap)
	if err != nil {
		t.Fatal(err)
	}
	// A watchdog-armed network has extra state the snapshot lacks.
	other := buildCkptNet(t, 1, 64)
	if err := other.RestoreCheckpoint(f); err == nil {
		t.Fatal("restore into a watchdog-armed network succeeded; want presence-mismatch error")
	}
}

// TestCheckpointRefusesStatelessClient requires Save to reject clients it
// cannot serialise rather than silently dropping their state.
func TestCheckpointRefusesStatelessClient(t *testing.T) {
	n := buildCkptNet(t, 1, 0)
	n.AttachClient(3, ClientFunc(func(now int64, p *Port) { p.Deliveries() }))
	if _, err := n.SaveCheckpoint(1, 0); err == nil {
		t.Fatal("SaveCheckpoint accepted a non-checkpointable client")
	}
}

// TestCheckpointOutstandingFlits checks the pool accounting balances
// after a restore: every live flit was drawn through a pool Get.
func TestCheckpointOutstandingFlits(t *testing.T) {
	n := buildCkptNet(t, 2, 0)
	n.Run(300)
	snap, err := n.SaveCheckpoint(1, 300)
	if err != nil {
		t.Fatal(err)
	}
	f, err := checkpoint.Parse(snap)
	if err != nil {
		t.Fatal(err)
	}
	res := buildCkptNet(t, 2, 0)
	if err := res.RestoreCheckpoint(f); err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < 16; tile++ {
		c := res.clients[tile].(*ckptClient)
		c.StopSending()
	}
	if !res.Drain(20000) {
		t.Fatal("restored network failed to drain")
	}
	if out := res.FlitsOutstanding(); out != 0 {
		t.Fatalf("FlitsOutstanding = %d after drain, want 0", out)
	}
}

// StopSending halts packet generation so the network can drain.
func (c *ckptClient) StopSending() { c.stopped = true }
