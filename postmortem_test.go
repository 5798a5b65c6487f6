package noc

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/sampler"
)

// The post-mortem suite gates the flight recorder's central promise:
// any recorded cycle is reconstructable EXACTLY — restore the newest
// keyframe at or before it, re-execute the deterministic engine forward,
// and the resulting state is byte-identical to a straight-through run —
// regardless of the shard count or epoch batching the original run used.

// recordedRun executes core.Run with a flight recorder attached and a dump
// requested near the end of the horizon, returning the parsed dump.
func recordedRun(t *testing.T, shards, batch int) *flightrec.Dump {
	t.Helper()
	dir := t.TempDir()
	p := core.DefaultRunParams()
	p.Rate = 0.3
	p.FlitsPerPacket = 2
	p.WarmupCycles = 0
	p.MeasureCycles = 2000
	p.Seed = 9
	p.Probe = telemetry.New(telemetry.Config{})
	p.Shards = shards
	p.BatchEpochs = batch

	var rec *flightrec.Recorder
	p.OnNetwork = func(n *network.Network, id core.SimSpec) error {
		hash, err := id.Hash()
		if err != nil {
			return err
		}
		spec, err := id.JSON()
		if err != nil {
			return err
		}
		smp, err := sampler.Attach(n, sampler.Config{})
		if err != nil {
			return err
		}
		r := flightrec.Attach(smp, flightrec.Config{
			Window: 512, Dir: dir,
			ConfigHash: hash, SpecJSON: spec, SpecKind: id.Kind,
		})
		rec = r
		n.Kernel().AddPhase("trigger", func(now sim.Cycle) {
			if now == 1700 {
				r.RequestDump("exactness")
			}
		})
		return nil
	}
	if _, err := core.Run(p); err != nil {
		t.Fatal(err)
	}
	dumps := rec.Dumps()
	if len(dumps) == 0 {
		t.Fatalf("no dump written (recorder err: %v)", rec.Err())
	}
	dp, err := flightrec.LoadDump(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

// reconstruct rebuilds the network from the dump's spec, restores the
// newest keyframe at or before cycle (or starts from the cycle-0 rebuild
// when none qualifies), replays forward, and returns the checkpoint image
// of the reconstructed state — the nocpost replay path, in-process.
func reconstruct(t *testing.T, dp *flightrec.Dump, cycle int64) []byte {
	t.Helper()
	spec, err := core.ParseSpec(dp.SpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if kf := dp.KeyframeBefore(cycle); kf != nil {
		f, err := checkpoint.Parse(kf.Data)
		if err != nil {
			t.Fatalf("keyframe at %d: %v", kf.Cycle, err)
		}
		if f.ConfigHash != dp.ConfigHash {
			t.Fatalf("keyframe hash %#x, dump hash %#x", f.ConfigHash, dp.ConfigHash)
		}
		if err := n.RestoreCheckpoint(f); err != nil {
			t.Fatalf("restore keyframe at %d: %v", kf.Cycle, err)
		}
	}
	// Advance via the kernel, not network.Run: nothing a straight-through
	// run would not have done at this cycle may perturb the state.
	if delta := cycle - int64(n.Kernel().Now()); delta > 0 {
		n.Kernel().Run(delta)
	}
	img, err := n.SaveCheckpoint(dp.ConfigHash, cycle)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// straightThrough rebuilds from the spec and runs from cycle 0 with no
// keyframe involved — the reference the reconstruction must byte-match.
func straightThrough(t *testing.T, dp *flightrec.Dump, cycle int64) []byte {
	t.Helper()
	spec, err := core.ParseSpec(dp.SpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	n.Kernel().Run(cycle)
	img, err := n.SaveCheckpoint(dp.ConfigHash, cycle)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestFlightRecReconstructionExact is the acceptance gate: keyframe +
// delta replay byte-matches the straight-through state at several shard
// counts, with epoch batching on and off, at a keyframe-aligned cycle, an
// unaligned one, and one older than every retained keyframe (the
// rebuild-from-zero fallback).
func TestFlightRecReconstructionExact(t *testing.T) {
	if testing.Short() {
		t.Skip("replay exactness sweep is not -short")
	}
	for _, tc := range []struct {
		shards, batch int
	}{
		{1, 0}, {2, 0}, {3, 0}, {2, -1},
	} {
		t.Run(fmt.Sprintf("shards=%d,batch=%d", tc.shards, tc.batch), func(t *testing.T) {
			dp := recordedRun(t, tc.shards, tc.batch)
			if len(dp.Keyframes) == 0 {
				t.Fatalf("dump has no keyframes (err %q)", dp.KeyframeErr)
			}
			targets := []int64{
				dp.LastCycle() - 7,          // keyframe + partial replay
				dp.Keyframes[0].Cycle,       // keyframe-aligned: zero replayed cycles
				dp.Keyframes[0].Cycle - 100, // older than every keyframe: from-zero fallback
			}
			for _, c := range targets {
				if c < 0 {
					continue
				}
				got := reconstruct(t, dp, c)
				want := straightThrough(t, dp, c)
				if !bytes.Equal(got, want) {
					t.Errorf("cycle %d: reconstructed state (%d bytes) differs from straight-through (%d bytes)",
						c, len(got), len(want))
				}
			}
		})
	}
}

// TestFlightRecRingMatchesReplay cross-checks the ring against replay the
// way `nocpost state` does: the instantaneous occupancy the original run
// recorded at a cycle equals the occupancy of the reconstructed state.
func TestFlightRecRingMatchesReplay(t *testing.T) {
	dp := recordedRun(t, 2, 0)
	spec, err := core.ParseSpec(dp.SpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	kf := dp.KeyframeBefore(dp.LastCycle())
	if kf == nil {
		t.Fatal("no keyframe covers the newest record")
	}
	f, err := checkpoint.Parse(kf.Data)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreCheckpoint(f); err != nil {
		t.Fatal(err)
	}
	for c := kf.Cycle; c <= dp.LastCycle(); c += 13 {
		if delta := c - int64(n.Kernel().Now()); delta > 0 {
			n.Kernel().Run(delta)
		}
		rec := dp.RecordAt(c)
		if rec == nil {
			continue
		}
		inFlight := n.LinksInFlight()
		bufOcc := n.Occupancy() - inFlight
		if uint32(bufOcc) != rec.BufOcc || uint32(inFlight) != rec.LinkInFlight {
			t.Fatalf("cycle %d: replayed occupancy %d/%d, ring recorded %d/%d",
				c, bufOcc, inFlight, rec.BufOcc, rec.LinkInFlight)
		}
	}
}

// buildNocpost compiles cmd/nocpost into the test's temp dir.
func buildNocpost(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nocpost")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nocpost")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/nocpost: %v\n%s", err, out)
	}
	return bin
}

// TestFlightRecSmoke is the post-mortem smoke `make ci` runs: a real
// nocsim binary wedges itself under the deliberate-deadlock fault
// campaign with -flightrec on, the detector fire writes a dump with no
// operator involvement, and a real nocpost binary's verdict recomputes
// the same root cause and attribution the live detectors recorded.
func TestFlightRecSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test is not -short")
	}
	nocsim := buildNocsim(t)
	nocpost := buildNocpost(t)
	dir := t.TempDir()

	cmd := exec.Command(nocsim,
		"-mode", "vc", "-topo", "torus", "-k", "4",
		"-rate", "0.25", "-warmup", "0", "-measure", "6000", "-seed", "5",
		"-watchdog", "64",
		"-faults", "stall,tile=5,port=N,at=100;stall,tile=5,port=E,at=100;stall,tile=5,port=S,at=100;stall,tile=5,port=W,at=100",
		"-flightrec", "-flightrec-dir", dir,
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("nocsim campaign failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "flightrec: dump written to ") {
		t.Fatalf("nocsim never announced a dump:\n%s", out)
	}

	matches, err := filepath.Glob(filepath.Join(dir, "flightrec-*-detector-deadlock.frec"))
	if err != nil || len(matches) == 0 {
		entries, _ := os.ReadDir(dir)
		t.Fatalf("no detector-deadlock dump in %s (glob err %v, dir: %v)", dir, err, entries)
	}
	dump := matches[0]

	info, err := exec.Command(nocpost, "info", dump).CombinedOutput()
	if err != nil {
		t.Fatalf("nocpost info: %v\n%s", err, info)
	}
	for _, want := range []string{"detector-deadlock", "campaign", "link", "declared dead"} {
		if !strings.Contains(string(info), want) {
			t.Errorf("nocpost info lacks %q:\n%s", want, info)
		}
	}

	verdict, err := exec.Command(nocpost, "verdict", dump).CombinedOutput()
	if err != nil {
		t.Fatalf("nocpost verdict: %v\n%s", err, verdict)
	}
	vs := string(verdict)
	// The post-mortem monitor replay reproduces every recorded transition...
	if !strings.Contains(vs, "[matches recorded]") {
		t.Errorf("verdict's monitor replay does not match the recorded transitions:\n%s", vs)
	}
	if strings.Contains(vs, "[not in recorded log]") || strings.Contains(vs, "detail differs") {
		t.Errorf("verdict's monitor replay diverged from the live log:\n%s", vs)
	}
	// ...and the root cause names the same deadlock the live detector saw,
	// with a byte-identical recomputed attribution.
	if !strings.Contains(vs, "root cause: deadlock") {
		t.Errorf("verdict does not name deadlock as the root cause:\n%s", vs)
	}
	if !strings.Contains(vs, "[post-mortem recomputation matches the live attribution]") {
		t.Errorf("recomputed attribution does not match the live one:\n%s", vs)
	}
	if !strings.Contains(vs, "t5:") {
		t.Errorf("verdict does not attribute tile 5:\n%s", vs)
	}
}
