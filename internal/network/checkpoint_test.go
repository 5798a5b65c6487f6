package network

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/flit"
	"repro/internal/router"
	"repro/internal/telemetry"
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
	return buildCkptNetWith(t, func(c *Config) { c.Shards, c.Watchdog = shards, watchdog })
}

// buildCkptNetWith builds the checkpoint test network, a 4x4 folded torus
// of default routers with a ckptClient on every tile, with mod applied to
// its configuration.
func buildCkptNetWith(t *testing.T, mod func(*Config)) *Network {
	t.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 42, Warmup: 50}
	mod(&cfg)
	n, err := New(cfg)
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
// 2, on the VC torus and on a deflection mesh. A Fork that skipped its
// restore would start the fork from cycle 0. Both runs carry a series
// probe, whose metrics CSV (counters, series and per-link duty factors
// over the probe's horizon) must match too.
func TestForkMatchesStraightRun(t *testing.T) {
	forkMatchesStraightRun(t, nil)
	t.Run("deflect-mesh", func(t *testing.T) {
		mesh, err := topology.NewMesh(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		forkMatchesStraightRun(t, func(c *Config) {
			c.Topo = mesh
			c.Router.Mode = router.ModeDeflect
		})
	})
}

// forkMatchesStraightRun is TestForkMatchesStraightRun's check at shards
// 1 and 2, on the checkpoint test network with mod (if any) applied.
func forkMatchesStraightRun(t *testing.T, mod func(*Config)) {
	const hash, w, m = 99, 250, 350
	metrics := func(t *testing.T, p *telemetry.Probe) string {
		t.Helper()
		var sb strings.Builder
		if err := p.WriteMetricsCSV(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			build := func(probe *telemetry.Probe) *Network {
				return buildCkptNetWith(t, func(c *Config) {
					c.Shards, c.Probe = shards, probe
					if mod != nil {
						mod(c)
					}
				})
			}
			refProbe := telemetry.New(telemetry.Config{SampleEvery: 25})
			ref := build(refProbe)
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
			forkProbe := telemetry.New(telemetry.Config{SampleEvery: 25})
			fork := build(forkProbe)
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
			if got, want := metrics(t, forkProbe), metrics(t, refProbe); got != want {
				t.Errorf("forked run's metrics CSV differs from the straight run's:\n%s\nwant:\n%s", got, want)
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

// TestCheckpointRejectsBadLinkCreditVC: a credit on a link's reverse
// wire naming a VC the routers do not have (9 of 8) must fail the
// restore with an error; restoring it used to succeed and the next Run
// panicked in the sending router.
func TestCheckpointRejectsBadLinkCreditVC(t *testing.T) {
	n := buildCkptNet(t, 1, 0)
	n.Run(100)
	n.links[0].l.SendCredit(9)
	snap, err := n.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := checkpoint.Parse(snap)
	if err != nil {
		t.Fatal(err)
	}
	err = buildCkptNet(t, 1, 0).RestoreCheckpoint(f)
	if err == nil || !strings.Contains(err.Error(), "queued credit names VC 9, outside [0, 8)") {
		t.Fatalf("restore of a credit for VC 9: err = %v", err)
	}
}

// TestCheckpointRejectsOrphanFlits: in a VC network, a body or tail flit
// restored where its input VC is not carrying its packet — on a live
// link's register, or at an active injection's cursor — fails the
// restore with an error naming the link or tile, the VC and the packet.
// Restoring such an image used to succeed, and the next Run panicked in
// RouteCompute on a non-head flit at the front of an unrouted VC. The
// same flit on a dead link is lost on delivery, so that image restores.
func TestCheckpointRejectsOrphanFlits(t *testing.T) {
	bodyOnLink3 := func(n *Network) {
		le := n.links[3]
		if err := le.l.Send(&flit.Flit{Type: flit.Body, PacketID: 7, Seq: 1, VC: 0, Src: le.from, Dst: le.to, TotalFlits: 3}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		image func(n *Network)
		want  string // "" = the restore succeeds
	}{
		{"body-on-a-wire", bodyOnLink3, "link 0-W: packet 7's body flit arrives at input E VC 0, which is not carrying that packet"},
		{"wire-flit-into-a-full-vc", func(n *Network) {
			le := n.links[3]
			for seq := 0; seq <= n.cfg.Router.BufFlits; seq++ {
				f := &flit.Flit{Type: flit.Body, PacketID: 5, Seq: seq, VC: 0, Src: le.from, Dst: le.to, TotalFlits: 8}
				if seq == 0 {
					f.Type = flit.Head
				}
				if seq < n.cfg.Router.BufFlits {
					n.routers[le.to].AcceptFlit(f, le.dir.Opposite())
				} else if err := le.l.Send(f); err != nil {
					t.Fatal(err)
				}
			}
		}, "link 0-W: packet 5's body flit arrives at input E VC 0, which already holds 4 flits"},
		{"body-on-a-dead-wire", func(n *Network) {
			bodyOnLink3(n)
			n.links[3].l.SetDown(true)
		}, ""},
		{"injection-cursor", func(n *Network) {
			p := n.ports[0]
			in := p.getInjection()
			for seq, ty := range []flit.Type{flit.Head, flit.Body, flit.Tail} {
				in.flits = append(in.flits, &flit.Flit{Type: ty, PacketID: 9, Seq: seq, VC: 2, Src: 0, Dst: 5, TotalFlits: 3})
			}
			in.next, in.vc = 2, 2
			p.active[2] = in
			p.activeCount++
		}, "tile 0: injection cursor: packet 9's tail flit arrives at input L VC 2, which is not carrying that packet"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := buildCkptNet(t, 1, 0)
			tc.image(n)
			snap, err := n.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			f, err := checkpoint.Parse(snap)
			if err != nil {
				t.Fatal(err)
			}
			res := buildCkptNet(t, 1, 0)
			err = res.RestoreCheckpoint(f)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				res.Run(20)
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore: err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestDeflectRestoreRefusesVCImage: a VC-router image carrying 2-flit
// packets, restored into a deflection network of the same shape, fails
// with an error naming where the packets sit, instead of panicking on the
// next Run, wherever they sit: routed in loaded routers, queued for
// injection before any has entered the network, or on a wire.
func TestDeflectRestoreRefusesVCImage(t *testing.T) {
	send2 := func(n *Network) {
		for src := 0; src < 16; src++ {
			for _, dst := range []int{(src + 5) % 16, (src + 10) % 16} {
				if _, err := n.Port(src).Send(dst, make([]byte, 2*flit.DataBytes), flit.VCMask(0xFF), 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, tc := range []struct {
		name  string
		image func(n *Network)
		want  string
	}{
		{"loaded-routers", func(n *Network) {
			n.Run(100)
			send2(n)
			n.Run(6)
		}, "deflection routes nothing"},
		{"queued", send2, "tile 0: queued packet 1's head flit under single-flit flow control"},
		{"on-a-wire", func(n *Network) {
			le := n.links[3]
			if err := le.l.Send(&flit.Flit{Type: flit.Head, PacketID: 7, Src: le.from, Dst: le.to, TotalFlits: 2}); err != nil {
				t.Fatal(err)
			}
		}, "packet 7's head flit under single-flit flow control"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := buildCkptNet(t, 1, 0)
			tc.image(n)
			snap, err := n.Snapshot(1)
			if err != nil {
				t.Fatal(err)
			}
			f, err := checkpoint.Parse(snap)
			if err != nil {
				t.Fatal(err)
			}
			deflect := buildCkptNetWith(t, func(c *Config) { c.Router.Mode = router.ModeDeflect })
			if err := deflect.RestoreCheckpoint(f); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore into a deflection network: err = %v, want one containing %q", err, tc.want)
			}
		})
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
